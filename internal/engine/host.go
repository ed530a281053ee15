package engine

import (
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// Step names one unit of replica work a substrate can meter. The steps are
// the simulator cost model's; the Host issues each where the work happens,
// so a meter on either substrate sees the same layers.
type Step uint8

// Metered steps, one per sim.CostModel field of the same name.
const (
	StepBaseHandle         Step = iota // receive and dispatch one message
	StepMACVerify                      // check one inbound authenticator
	StepClientVerifyPerReq             // check one entry of a client request's authenticator
	StepHashPerReq                     // digest one client request
	StepExecPerReq                     // execute one request
	StepDSVerify                       // verify one signature or attestation
	StepVerifyMemoHit                  // answer one verification from the memo
	StepVerifyBatchN                   // one pooled verification's event-loop share
	StepLeaseReadPerReq                // serve one leased read
	StepMACSign                        // sign one outbound authenticator
	StepSendOverhead                   // emit one message

	NumSteps = iota // how many steps there are
)

// Substrate is what a Host needs from the machinery that runs its replica.
// The substrate embeds the Host and implements the rest of Env itself:
// timers, sends, Defer, Crypto and Logf.
type Substrate interface {
	// Now is Env.Now.
	Now() time.Duration
	// Charge meters n units of step on the running handler.
	Charge(step Step, n int)
	// TrustedAccess runs before every trusted-component operation that
	// reaches the hardware; hostSeq marks the host-sequenced Append stream.
	TrustedAccess(hostSeq bool)
	// VerifyAsync runs check, off the replica's event context where the
	// substrate can, records key in the Host's memo if check passed, and
	// then delivers done(ok) as an event of its own.
	VerifyAsync(key crypto.MemoKey, check func() bool, done func(ok bool))
	// SendLeaseReply sends a leased-read answer to client c.
	SendLeaseReply(c types.ClientID, r types.LeaseReadReply)
}

// HostConfig assembles a Host.
type HostConfig struct {
	ID types.ReplicaID
	// Engine is the protocol's configuration. The Host gives the protocol a
	// copy with Lease set to its own tracker when ReadLease is on.
	Engine Config
	// NewProtocol builds the protocol from the Host's copy of Engine.
	NewProtocol func(Config) Protocol
	// Records sizes the key-value store.
	Records int
	// TC is the trusted component the replica's namespaced view wraps.
	TC trusted.Component
	// Verify checks an attestation's proof in the form it was minted, with
	// the counter namespace already mapped back.
	Verify func(*types.Attestation) bool
}

// MaxParkedReads bounds how many behind-the-fence leased reads a Host holds.
// Past it the oldest, by then most likely abandoned by its client, is
// refused to make room, so reads that can never be satisfied do not wedge
// the rest.
const MaxParkedReads = 1024

// Host is the part of a replica that is the same on every substrate: the
// store and what reads it (the read view and the lease tracker), the trusted
// view, the verified-statement memo and the metric handles, and the Env
// methods built on them. runtime.Node and the simulator's replica each embed
// one and supply a Substrate.
type Host struct {
	id     types.ReplicaID
	ns     uint16
	margin time.Duration
	sub    Substrate
	proto  Protocol
	store  *kvstore.Store
	tc     trusted.Component
	view   hostTC
	verify func(*types.Attestation) bool
	memo   *crypto.VerifyMemo

	// Leased reads (lease and readView are nil unless ReadLease). The
	// tracker and the view are concurrency-safe, so a substrate may serve
	// reads off the event context; parked holds the reads whose fence is
	// ahead of the view until Execute gets it there.
	lease    *LeaseTracker
	readView *kvstore.ReadView
	parkMu   sync.Mutex
	parked   []*types.LeaseRead

	// stale is the byzantine stale-serve model (see SetStaleServe): the last
	// binding this replica ever armed, kept outside the tracker.
	stale struct {
		on    bool
		view  types.View
		epoch uint64
		att   *types.Attestation
	}

	mExecBatch   *obs.Histogram
	mVerifies    *obs.Counter
	mMemoHits    *obs.Counter
	mPoolDepth   *obs.Gauge
	mRevocations *obs.Counter
	mLeaseReads  *obs.Counter
}

// NewHost builds the replica's host and its protocol. The protocol is not
// initialised: the substrate calls Init with itself as the Env.
func NewHost(cfg HostConfig, sub Substrate) *Host {
	m := cfg.Engine.Observer.Metrics()
	h := &Host{
		id:     cfg.ID,
		ns:     cfg.Engine.TrustedNamespace,
		margin: cfg.Engine.LeaseSafetyMargin,
		sub:    sub,
		store:  kvstore.New(cfg.Records),
		tc:     cfg.TC,
		verify: cfg.Verify,
		memo:   crypto.NewVerifyMemo(0),

		mExecBatch:   m.Histogram(obs.MExecBatch),
		mVerifies:    m.Counter(obs.MSigVerifies),
		mMemoHits:    m.Counter(obs.MSigVerifyCacheHits),
		mPoolDepth:   m.Gauge(obs.MVerifyPoolDepth),
		mRevocations: m.Counter(obs.MLeaseRevocations),
		mLeaseReads:  m.Counter(obs.MLeaseReads),
	}
	// Protocol code sees instance-local counter ids; the namespaced view
	// isolates them inside a component that may be shared.
	h.view = hostTC{Component: trusted.Namespaced(cfg.TC, h.ns), h: h}
	ecfg := cfg.Engine
	if ecfg.ReadLease {
		// One tracker per replica, injected through this replica's config
		// copy, so the protocol's Base revokes exactly its host's lease.
		h.lease = &LeaseTracker{}
		h.readView = kvstore.NewReadView()
		ecfg.Lease = h.lease
	}
	h.proto = cfg.NewProtocol(ecfg)
	return h
}

// ID implements Env.
func (h *Host) ID() types.ReplicaID { return h.id }

// Protocol returns the hosted protocol.
func (h *Host) Protocol() Protocol { return h.proto }

// Store exposes the state machine. It is owned by the replica's event
// context; while the replica runs, read it from there.
func (h *Host) Store() *kvstore.Store { return h.store }

// TrustedComponent returns the component the replica's trusted view wraps.
func (h *Host) TrustedComponent() trusted.Component { return h.tc }

// Memo returns the replica's verified-statement memo.
func (h *Host) Memo() *crypto.VerifyMemo { return h.memo }

// LeaseState reports the lease tracker's position (last granted epoch and
// whether it is still active). Only a primary that executed a grant ever
// shows active; the tracker is locked, so this is safe from any goroutine.
func (h *Host) LeaseState() (epoch uint64, active bool) { return h.lease.Epoch() }

// Parked returns how many leased reads wait behind their fence.
func (h *Host) Parked() int {
	h.parkMu.Lock()
	defer h.parkMu.Unlock()
	return len(h.parked)
}

// SetStaleServe makes the replica byzantine on the leased-read path: once
// its tracker stops serving, it keeps answering from the last binding it
// ever armed, ignoring the client's fence, and it never waits for a fence.
// Client-side lease checks are what must keep such a replica from serving a
// stale read. Set it before the replica handles any message.
func (h *Host) SetStaleServe(on bool) { h.stale.on = on }

// Deliver routes one inbound message into the replica; from is the sending
// replica, or -1 for a client. A LeaseRead never reaches the protocol, so a
// substrate may deliver one from any goroutine; everything else must arrive
// in the replica's event context.
func (h *Host) Deliver(from types.ReplicaID, m types.Message) {
	if lr, ok := m.(*types.LeaseRead); ok {
		// The leased fast path: an authenticated lookup, with no pipeline
		// dispatch and no batch serialization.
		h.sub.Charge(StepMACVerify, 1)
		h.sub.Charge(StepLeaseReadPerReq, 1)
		h.serveLeaseRead(lr)
		return
	}
	h.sub.Charge(StepBaseHandle, 1)
	h.sub.Charge(StepMACVerify, 1)
	switch msg := m.(type) {
	case *types.RequestBatch:
		h.sub.Charge(StepHashPerReq, len(msg.Requests))
		for _, r := range msg.Requests {
			h.proto.OnRequest(r)
		}
	case *types.ClientRequest:
		h.sub.Charge(StepHashPerReq, 1)
		h.proto.OnRequest(msg)
	default:
		h.proto.OnMessage(from, m)
	}
}

// Trusted implements Env.
func (h *Host) Trusted() trusted.Component { return &h.view }

// VerifyAttestation implements Env: a memo hit, or one verification of the
// proof in the form it was minted.
func (h *Host) VerifyAttestation(a *types.Attestation) bool {
	if a == nil {
		h.sub.Charge(StepDSVerify, 1)
		return false
	}
	key := crypto.AttestationMemoKey(a)
	if h.memoHit(key) {
		return true
	}
	h.sub.Charge(StepDSVerify, 1)
	h.mVerifies.Inc()
	ok := h.valid(a)
	if ok {
		h.memo.Record(key)
	}
	return ok
}

// VerifyAttestationAsync implements Env: memo hits complete synchronously,
// everything else through the substrate's VerifyAsync.
func (h *Host) VerifyAttestationAsync(a *types.Attestation, done func(ok bool)) {
	if a == nil {
		done(h.VerifyAttestation(nil))
		return
	}
	key := crypto.AttestationMemoKey(a)
	if h.memoHit(key) {
		done(true)
		return
	}
	h.mVerifies.Inc()
	h.mPoolDepth.Add(1)
	h.sub.VerifyAsync(key, func() bool { return h.valid(a) }, func(ok bool) {
		h.mPoolDepth.Add(-1)
		h.sub.Charge(StepVerifyBatchN, 1)
		done(ok)
	})
}

// memoHit reports whether key verified before, metering the lookup if so.
func (h *Host) memoHit(key crypto.MemoKey) bool {
	if !h.memo.Seen(key) {
		return false
	}
	h.sub.Charge(StepVerifyMemoHit, 1)
	h.mMemoHits.Inc()
	return true
}

// valid checks a's proof. Attestations minted through a namespaced view are
// remapped to the form their proof binds first.
func (h *Host) valid(a *types.Attestation) bool {
	return h.verify(trusted.MapAttestation(a, h.ns))
}

// Execute implements Env. With leases on, it also arms the lease for every
// grant the batch committed, stops serving the moment a committed op
// deactivates the store's lease, publishes the read view, and answers the
// parked reads the view now covers.
func (h *Host) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	h.sub.Charge(StepExecPerReq, b.Len())
	h.mExecBatch.Observe(int64(b.Len()))
	results := h.store.ApplyBatch(b)
	if h.lease == nil {
		return results
	}
	h.lease.NoteExec(seq)
	h.scanLeaseGrants(b, results)
	// A committed range freeze (or revoke op) clears the store's lease flag
	// deterministically on every replica; the clock-bound tracker must stop
	// serving the same instant that batch executes, not at natural expiry.
	if _, storeActive := h.store.LeaseEpoch(); !storeActive {
		if _, wasActive := h.lease.Epoch(); wasActive {
			h.mRevocations.Inc()
		}
		h.lease.Revoke()
	}
	h.store.SyncView(h.readView, seq)
	h.serveParked(seq)
	return results
}

// scanLeaseGrants arms the tracker for every OpLeaseGrant the batch
// committed. Only the view's primary arms it, since it is the one replica
// allowed to serve, and it anchors the grant to the group's trusted counter
// with one attested access.
func (h *Host) scanLeaseGrants(b *types.Batch, results []types.Result) {
	for i, r := range b.Requests {
		if len(r.Op) == 0 || kvstore.OpCode(r.Op[0]) != kvstore.OpLeaseGrant || i >= len(results) {
			continue
		}
		op, err := kvstore.DecodeOp(r.Op)
		if err != nil {
			continue
		}
		dur, ok := kvstore.LeaseGrantDuration(op)
		if !ok || dur <= 0 {
			continue
		}
		epoch, ok := kvstore.DecodeLeaseGrant(results[i].Value)
		if !ok {
			continue
		}
		sr, reports := h.proto.(StatusReporter)
		if !reports {
			continue
		}
		st := sr.Status()
		if st.Primary != h.id || st.InViewChange {
			continue
		}
		var att *types.Attestation
		if a, err := h.view.AppendF(LeaseCounterID, leaseGrantDigest(h.ns, st.View, epoch, dur)); err == nil {
			att = a
		}
		h.lease.Grant(st.View, epoch, h.sub.Now()+dur-h.margin, att)
		h.stale.view, h.stale.epoch, h.stale.att = st.View, epoch, att
	}
}

// serveLeaseRead answers a single-key read under the read lease. A read
// whose fence is ahead of the read view (the client saw a commit from f+1
// backups that this replica has yet to execute) is not answered yet: whether
// a lease is live and what the key holds are both questions about a prefix
// this replica has not finished, so it parks and Execute answers it as soon
// as the view gets there.
func (h *Host) serveLeaseRead(lr *types.LeaseRead) {
	if h.lease != nil && !h.stale.on && h.readView.Seq() < lr.Fence {
		parked, evicted := h.parkRead(lr)
		if evicted != nil {
			h.replyLeaseRead(evicted, false)
		}
		if parked {
			return
		}
	}
	h.replyLeaseRead(lr, true)
}

// replyLeaseRead sends lr's answer: from the lease tracker and the read view
// as they are right now when answer is set, a flat refusal otherwise. Any
// reply other than OK/NotFound sends the client down the consensus fallback.
func (h *Host) replyLeaseRead(lr *types.LeaseRead, answer bool) {
	reply := types.LeaseReadReply{Replica: h.id, ReadNo: lr.ReadNo, Key: lr.Key, Status: types.LeaseReadRefused}
	view, epoch, _, att, serving := h.lease.Serving(h.sub.Now())
	fence := lr.Fence
	if !serving && h.stale.on && h.stale.epoch != 0 {
		view, epoch, att, serving, fence = h.stale.view, h.stale.epoch, h.stale.att, true, 0
	}
	if !serving {
		reply.Status = types.LeaseReadNoLease
	} else if answer {
		reply.View, reply.Epoch, reply.Attest = view, epoch, att
		val, seq, st := h.readView.Lookup(lr.Key, fence)
		reply.Watermark = seq
		switch st {
		case kvstore.ReadOK:
			reply.Status = types.LeaseReadOK
			reply.Value = val
			h.mLeaseReads.Inc()
		case kvstore.ReadNotFound:
			reply.Status = types.LeaseReadNotFound
			h.mLeaseReads.Inc()
		}
	}
	h.sub.Charge(StepMACSign, 1)
	h.sub.SendLeaseReply(lr.Client, reply)
}

// parkRead holds lr until the read view reaches its fence. parked is false
// (the caller answers now) when the view got there between the caller's
// check and this call: that re-check and Execute's drain both run under
// parkMu, and Execute publishes the view before it drains, so a parked read
// is always seen by the execution that satisfies it. evicted is the read
// that lost its place to lr when parking was full; the caller refuses it.
func (h *Host) parkRead(lr *types.LeaseRead) (parked bool, evicted *types.LeaseRead) {
	h.parkMu.Lock()
	defer h.parkMu.Unlock()
	if h.readView.Seq() >= lr.Fence {
		return false, nil
	}
	if len(h.parked) >= MaxParkedReads {
		evicted = h.parked[0]
		h.parked = h.parked[:copy(h.parked, h.parked[1:])]
	}
	h.parked = append(h.parked, lr)
	return true, evicted
}

// serveParked answers the parked reads the view at seq now covers. Each
// still goes through the tracker: a lease revoked or expired while a read
// waited answers NoLease, never a value.
func (h *Host) serveParked(seq types.SeqNum) {
	h.parkMu.Lock()
	var due []*types.LeaseRead
	keep := h.parked[:0]
	for _, lr := range h.parked {
		if lr.Fence <= seq {
			due = append(due, lr)
		} else {
			keep = append(keep, lr)
		}
	}
	clear(h.parked[len(keep):])
	h.parked = keep
	h.parkMu.Unlock()
	for _, lr := range due {
		h.replyLeaseRead(lr, true)
	}
}

// StateDigest implements Env.
func (h *Host) StateDigest() types.Digest { return h.store.StateDigest() }

// SnapshotState implements Env.
func (h *Host) SnapshotState() any { return h.store.Snapshot() }

// RestoreState implements Env. A rollback may rewind the committed lease
// state, so local serving stops until a fresh grant commits; the read view
// resyncs wholesale on the next executed batch.
func (h *Host) RestoreState(s any) {
	h.store.Restore(s.(*kvstore.Snapshot))
	h.lease.Revoke()
}

// hostTC is the trusted view Env.Trusted returns: the namespaced component,
// with the substrate's access hook before every operation that reaches the
// hardware. A component shared by several replicas mints attestations under
// its own identity; they leave relabelled with the replica's (HostConfig.
// Verify maps them back).
type hostTC struct {
	trusted.Component
	h *Host
}

// relabel rewrites a returned attestation's host identity to the replica's.
func (t *hostTC) relabel(a *types.Attestation, err error) (*types.Attestation, error) {
	if a == nil || a.Replica == t.h.id {
		return a, err
	}
	m := *a
	m.Replica = t.h.id
	return &m, err
}

func (t *hostTC) Host() types.ReplicaID { return t.h.id }

func (t *hostTC) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	t.h.sub.TrustedAccess(false)
	return t.relabel(t.Component.AppendF(q, x))
}

func (t *hostTC) Append(q uint32, k uint64, x types.Digest) (*types.Attestation, error) {
	t.h.sub.TrustedAccess(true)
	return t.relabel(t.Component.Append(q, k, x))
}

func (t *hostTC) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	t.h.sub.TrustedAccess(false)
	return t.relabel(t.Component.Lookup(q, k))
}

func (t *hostTC) Create(q uint32, k uint64) (*types.Attestation, error) {
	t.h.sub.TrustedAccess(false)
	return t.relabel(t.Component.Create(q, k))
}
