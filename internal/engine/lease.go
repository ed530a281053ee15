package engine

import (
	"encoding/binary"
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// LeaseCounterID is the trusted-counter id lease grants attest under
// (within the group's namespace) — disjoint from the low ids the consensus
// protocols use.
const LeaseCounterID = 0x4C45 // "LE"

// leaseGrantDigest binds a lease grant's identity — the group's counter
// namespace, the view granting it, the lease epoch and the duration — into
// the digest the primary's one attested access at grant time commits to.
func leaseGrantDigest(ns uint16, view types.View, epoch uint64, dur time.Duration) types.Digest {
	buf := make([]byte, 0, 2+8+8+8)
	buf = binary.BigEndian.AppendUint16(buf, ns)
	buf = binary.BigEndian.AppendUint64(buf, uint64(view))
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint64(buf, uint64(dur))
	return crypto.HashBytes(buf)
}

// GrantAttested reports whether a served lease-read reply carries its grant's
// attestation: the digest binds the group's counter namespace ns, the
// reply's view and epoch and the lease duration dur, and verify accepts the
// proof in the form it was minted.
func GrantAttested(r *types.LeaseReadReply, ns uint16, dur time.Duration, verify func(*types.Attestation) bool) bool {
	a := r.Attest
	if a == nil || a.Digest != leaseGrantDigest(ns, r.View, r.Epoch, dur) {
		return false
	}
	return verify(trusted.MapAttestation(a, ns))
}

// LeaseTracker holds one replica's clock-bound view of its group's read
// lease: the (view, epoch, expiry) binding a committed kvstore.OpLeaseGrant
// established, plus the replica's commit watermark. The deterministic half of
// the lease (the monotone epoch, the active flag) lives in the replicated
// store; the tracker holds the half that cannot — wall/virtual-clock expiry
// and the attestation minted at grant time.
//
// The tracker is the one piece of lease state read off the replica's event
// goroutine (the whole point of the fast path is answering reads without
// entering it), so it is internally locked. Every node gets its OWN tracker
// via Config.Lease; sharing one across replicas would let one node's grant
// authorize another's serving.
//
// All methods are nil-receiver safe: substrates and protocol code call them
// unconditionally, and a nil tracker simply never serves.
type LeaseTracker struct {
	mu     sync.Mutex
	active bool
	view   types.View
	epoch  uint64
	expiry time.Duration // Env.Now() instant serving must stop (margin applied)
	exec   types.SeqNum  // commit watermark: highest executed sequence
	attest *types.Attestation
}

// Grant installs a servable lease binding. expiry is the Env.Now() instant
// serving must stop — the caller has already subtracted its safety margin. A
// grant for an older epoch never overwrites a newer one (executions are
// ordered, but a rolled-back speculative path could replay).
func (t *LeaseTracker) Grant(view types.View, epoch uint64, expiry time.Duration, attest *types.Attestation) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch < t.epoch {
		return
	}
	t.active, t.view, t.epoch, t.expiry, t.attest = true, view, epoch, expiry, attest
}

// Revoke deactivates the lease immediately. Called on view change (entering
// or even just voting for a new view), placement epoch flips, range freezes
// and state rollbacks — any event after which local serving could be stale.
func (t *LeaseTracker) Revoke() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = false
	t.attest = nil
}

// NoteExec advances the commit watermark after a batch executes.
func (t *LeaseTracker) NoteExec(seq types.SeqNum) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > t.exec {
		t.exec = seq
	}
}

// Serving reports whether the lease is servable at instant now and, if so,
// returns the binding and the commit watermark the serving read view must
// have reached.
func (t *LeaseTracker) Serving(now time.Duration) (view types.View, epoch uint64, wm types.SeqNum, attest *types.Attestation, ok bool) {
	if t == nil {
		return 0, 0, 0, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active || now >= t.expiry {
		return 0, 0, 0, nil, false
	}
	return t.view, t.epoch, t.exec, t.attest, true
}

// Epoch returns the last granted epoch and whether the lease is currently
// active (expiry not considered) — test and metrics surface.
func (t *LeaseTracker) Epoch() (epoch uint64, active bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch, t.active
}

// LeaseBinding is the client-side record of one committed lease grant: the
// (view, epoch) it committed under, the primary that view names, and the
// client-side lifetime.
type LeaseBinding struct {
	View    types.View
	Epoch   uint64
	Primary types.ReplicaID
	// Granted is the instant the grant was submitted — strictly before the
	// primary's execute instant, which is where its own expiry clock starts —
	// and Expiry is Granted + duration − margin, so the holder stops trusting
	// the lease before the primary stops honouring it.
	Granted time.Duration
	Expiry  time.Duration
}

// LeaseVerdict is LeaseHolder.Accept's judgement of one lease-read reply.
// Anything but LeaseAccepted sends the read down the consensus fallback.
type LeaseVerdict uint8

// Accept outcomes.
const (
	// LeaseAccepted: the reply binds the held lease; its value may be used.
	LeaseAccepted LeaseVerdict = iota
	// LeaseGone: the primary holds no servable lease, or the holder's own
	// expiry passed while the read was in flight.
	LeaseGone
	// LeaseBehindFence: refused only because the primary's read view had not
	// reached the read's fence.
	LeaseBehindFence
	// LeaseRefused: the lease is live but consensus must decide this read
	// (unowned or migrating range, key under an intent).
	LeaseRefused
	// LeaseMismatch: served under a binding the holder does not hold, below
	// the fence, or with an attestation that does not verify.
	LeaseMismatch
	// LeaseRenewing: served under a NEWER lease than the one held while the
	// holder's own grant is in flight — almost certainly the renewal, which
	// the primary executed before this side saw it commit. The binding is
	// kept; a caller that can wait for the grant re-judges the reply then.
	LeaseRenewing
)

// LeaseHolder is the client half of a group's read lease, the counterpart of
// LeaseTracker: the one binding its owner saw commit, and every decision
// taken against it — when it may be used, when to renew it, whether a reply
// was served under it, when to stop believing in it. It is a pure state
// machine over an injected clock (every method that depends on time takes
// now), so the goroutine runtime (shard.Cluster, one holder per group behind
// a mutex, wall clock) and the simulator (sim's client pool, virtual time)
// run the same rules. Not safe for concurrent use.
type LeaseHolder struct {
	n           int
	dur, margin time.Duration

	cur      LeaseBinding // the last binding this holder saw commit
	bound    bool         // reads may still go out under cur (not dropped)
	attested bool         // cur's grant attestation verified (once per epoch)
	granting bool         // single-flight: one grant in consensus at a time
	// prev is the binding cur superseded, kept with its own expiry for the
	// replies to reads that went out under it (see Accept).
	prev         LeaseBinding
	prevAttested bool
}

// NewLeaseHolder returns an empty holder for an n-replica group whose grants
// last dur and are trusted for dur − margin.
func NewLeaseHolder(n int, dur, margin time.Duration) *LeaseHolder {
	return &LeaseHolder{n: n, dur: dur, margin: margin}
}

// Duration is the lease duration grants ask for (and attestations bind).
func (h *LeaseHolder) Duration() time.Duration { return h.dur }

// Usable returns the held binding if reads may go out under it at now.
func (h *LeaseHolder) Usable(now time.Duration) (LeaseBinding, bool) {
	if !h.bound || now >= h.cur.Expiry {
		return LeaseBinding{}, false
	}
	return h.cur, true
}

// RenewalDue reports whether a usable lease has less than half its life left
// and no grant is in flight: the moment to start one renewal, ahead of expiry,
// so an unbroken primary holds an unbroken lease.
func (h *LeaseHolder) RenewalDue(now time.Duration) bool {
	return h.bound && !h.granting && now < h.cur.Expiry && now >= h.cur.Granted+h.dur/2
}

// BeginGrant claims the single grant slot; false means one is already in
// consensus and the caller must not submit another.
func (h *LeaseHolder) BeginGrant() bool {
	if h.granting {
		return false
	}
	h.granting = true
	return true
}

// Install records the binding a grant committed under and frees the grant
// slot. submitted is the instant the grant op was handed to consensus.
func (h *LeaseHolder) Install(view types.View, epoch uint64, submitted time.Duration) {
	h.granting = false
	h.prev, h.prevAttested = h.cur, h.attested
	h.bound, h.attested = true, false
	h.cur = LeaseBinding{
		View: view, Epoch: epoch, Primary: types.Primary(view, h.n),
		Granted: submitted, Expiry: submitted + h.dur - h.margin,
	}
}

// GrantFailed frees the grant slot after a grant that did not commit.
func (h *LeaseHolder) GrantFailed() { h.granting = false }

// Drop stops sending reads under the binding of the given epoch — the one a
// failed read went out under. A newer binding installed since is left alone,
// and replies still in flight under the dropped one are judged on their
// merits: dropping is a routing decision, not a verdict on reads the primary
// already served.
func (h *LeaseHolder) Drop(epoch uint64) {
	if h.cur.Epoch == epoch {
		h.bound = false
	}
}

// Invalidate drops whatever binding is held (placement epoch flips: the
// group revoked its lease at the freeze).
func (h *LeaseHolder) Invalidate() { h.bound = false }

// Accept judges a lease-read reply against the latest binding this holder saw
// commit as of NOW, not the one the read went out under (sent names that
// one's epoch), so a renewal landing mid-read neither rejects the read nor
// costs the fresh lease. A reply is accepted only if it was served, its
// (replica, view, epoch) equals that binding, the binding's client-side expiry
// has not passed, its watermark covers fence, and the grant attestation it
// carries verifies — verify is called at most once per epoch, on the first
// otherwise acceptable reply. Accept also takes the drop decisions: a primary
// that says it holds no lease, lies about the fence, or serves under a lease
// newer than ours with no grant of ours in flight ends the binding, so the
// next read re-grants.
//
// A reply served under the binding the read went out under is also accepted
// when a renewal of the same view superseded that binding while the read was
// in flight, on the same checks against the superseded binding and its own
// expiry. That is as safe as accepting it before the renewal: a view names one
// primary, so both epochs are held by the same primary in the same view and
// no other replica could order a write between them. The primary served the
// read while its own lease for the sent epoch was live, and the holder's
// expiry for that epoch still ends before the primary's does. A renewal that
// committed in a later view may be another primary's, so it is not covered.
func (h *LeaseHolder) Accept(r *types.LeaseReadReply, sent uint64, fence types.SeqNum, now time.Duration,
	verify func(*types.LeaseReadReply) bool) LeaseVerdict {
	switch r.Status {
	case types.LeaseReadOK, types.LeaseReadNotFound:
	case types.LeaseReadNoLease:
		h.Drop(sent)
		return LeaseGone
	default:
		if r.Watermark < fence {
			return LeaseBehindFence
		}
		return LeaseRefused
	}
	b, attested := &h.cur, &h.attested
	if sent == h.prev.Epoch && sent != h.cur.Epoch && serves(r, h.prev) && h.prev.View == h.cur.View {
		b, attested = &h.prev, &h.prevAttested
	}
	if !serves(r, *b) {
		newer := r.View > h.cur.View || (r.View == h.cur.View && r.Epoch > h.cur.Epoch)
		switch {
		case newer && h.granting:
			return LeaseRenewing
		case newer:
			h.bound = false
		}
		return LeaseMismatch
	}
	if r.Watermark < fence {
		h.bound = false
		return LeaseMismatch
	}
	if now >= b.Expiry {
		return LeaseGone
	}
	if !*attested {
		if !verify(r) {
			return LeaseMismatch
		}
		*attested = true
	}
	return LeaseAccepted
}

// serves reports whether r was served under binding b: by b's primary, in b's
// view and epoch.
func serves(r *types.LeaseReadReply, b LeaseBinding) bool {
	return r.Replica == b.Primary && r.View == b.View && r.Epoch == b.Epoch
}
