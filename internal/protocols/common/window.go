package common

import (
	"bytes"
	"sort"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// Windowed amortized attestation (engine.Config.AttestWindow > 1).
//
// Both FlexiTrust protocols share the same windowing mechanics, so they live
// here. The primary assigns sequence numbers locally, folds each batch
// digest into a running chain (crypto.ChainDigest, anchored at
// crypto.WindowGenesis(view)), and spends ONE AppendF on the chain tip per
// window of up to AttestWindow batches — flushing when the window fills,
// when BatchTimeout elapses on a partial window, and unconditionally before
// abandoning a view. The resulting crypto.WindowCert travels as a
// WindowAttest broadcast; backups hold their votes (or speculative
// execution) for a slot until the covering certificate verifies.
//
// Safety rests on the replica-side acceptance rules enforced by Admit: an
// accepted window must carry the next counter value this replica expects,
// start exactly one past the last covered sequence number, chain from the
// previously attested tip (the view's genesis for the first window), and
// verify both its chain fold and its attestation. AppendF monotonicity
// means the primary mints at most one attestation per (epoch, value), so at
// each chain position exactly one window can ever satisfy those rules: the
// accepted chain — and therefore every slot→digest binding in it — is
// unique per view. Within-window equivocation or reordering changes the
// fold and is rejected; cross-window equivocation would need a second
// attestation for an already-spent counter value, which the trusted
// component cannot produce.

// windowPendingCap bounds certificates buffered for out-of-order async
// verification completions; a Byzantine primary cannot grow the buffer
// beyond it.
const windowPendingCap = 64

// pendingWindow is a verified certificate waiting for its predecessor.
type pendingWindow struct {
	wc  *crypto.WindowCert
	enc []byte
}

// WindowState holds one replica's windowing state for the current view:
// the primary-side open window and the replica-side acceptance chain.
type WindowState struct {
	// Cap is the configured window size; windowing is active when > 1.
	Cap int

	view types.View

	// Primary side: the open (not yet attested) window.
	start   types.SeqNum   // first slot of the open window
	digests []types.Digest // open window's batch digests in slot order
	tip     types.Digest   // chain tip including the open window

	// Replica side: the accepted chain position.
	prev        types.Digest // attested tip of the last accepted window
	lastCovered types.SeqNum // highest covered sequence number
	nextValue   uint64       // counter value the next window must carry

	certs   map[types.SeqNum][]byte       // covering cert per slot (view-change proofs)
	covered map[types.SeqNum]types.Digest // certified digest per covered slot
	pending map[types.SeqNum]*types.Preprepare
	waiting map[uint64]*pendingWindow // verified certs by counter value, awaiting order
}

// NewWindowState returns the state for a configured window size.
func NewWindowState(cap int) *WindowState {
	return &WindowState{
		Cap:     cap,
		certs:   make(map[types.SeqNum][]byte),
		covered: make(map[types.SeqNum]types.Digest),
		pending: make(map[types.SeqNum]*types.Preprepare),
		waiting: make(map[uint64]*pendingWindow),
	}
}

// Enabled reports whether windowed attestation is active.
func (w *WindowState) Enabled() bool { return w != nil && w.Cap > 1 }

// Reset re-anchors the chain for view v: the genesis tip, coverage up to
// covered (the stable sequence number), and the counter value the view's
// first window must carry. Cross-view pending state is dropped; per-slot
// certificates are cleared because a new view's re-proposal supersedes them.
func (w *WindowState) Reset(v types.View, covered types.SeqNum, nextValue uint64) {
	w.view = v
	g := crypto.WindowGenesis(v)
	w.prev, w.tip = g, g
	w.start = 0
	w.digests = w.digests[:0]
	w.lastCovered = covered
	w.nextValue = nextValue
	clear(w.certs)
	clear(w.covered)
	clear(w.pending)
	clear(w.waiting)
}

// Append extends the open window with a batch the primary just proposed,
// returning true when the window reached Cap and must flush.
func (w *WindowState) Append(seq types.SeqNum, d types.Digest) bool {
	if len(w.digests) == 0 {
		w.start = seq
	}
	w.digests = append(w.digests, d)
	w.tip = crypto.ChainDigest(w.tip, d, seq)
	return len(w.digests) >= w.Cap
}

// Open reports whether the primary has unattested batches in flight.
func (w *WindowState) Open() bool { return len(w.digests) > 0 }

// Len is the open window's batch count.
func (w *WindowState) Len() int { return len(w.digests) }

// Flush spends the window's single AppendF on the chain tip, records the
// coverage locally (the primary is its own verifier), emits the audit
// window record, and returns the encoded certificate to broadcast — nil if
// the window is empty or the counter access failed.
func (w *WindowState) Flush(env engine.Env, cfg *engine.Config, counterID uint32) []byte {
	if len(w.digests) == 0 {
		return nil
	}
	att, err := env.Trusted().AppendF(counterID, w.tip)
	if err != nil {
		env.Logf("window flush: AppendF failed: %v", err)
		return nil
	}
	wc := &crypto.WindowCert{
		View:    w.view,
		Start:   w.start,
		Prev:    w.prev,
		Digests: append([]types.Digest(nil), w.digests...),
		Att:     att,
	}
	enc := wc.Encode()
	for i, d := range wc.Digests {
		seq := wc.Start + types.SeqNum(i)
		w.certs[seq] = enc
		w.covered[seq] = d
	}
	w.prev = w.tip
	w.lastCovered = wc.End()
	w.nextValue = att.Value + 1
	w.digests = w.digests[:0]
	w.start = 0
	cfg.Observer.Audit().Window(obs.WindowRecord{
		Host:      env.ID(),
		Namespace: cfg.TrustedNamespace,
		Counter:   counterID,
		Epoch:     att.Epoch,
		Value:     att.Value,
		Start:     uint64(wc.Start),
		End:       uint64(wc.End()),
		Digest:    att.Digest,
	})
	return enc
}

// CoveredDigest returns the certified digest for a slot, if any window
// accepted so far covers it.
func (w *WindowState) CoveredDigest(seq types.SeqNum) (types.Digest, bool) {
	d, ok := w.covered[seq]
	return d, ok
}

// Cert returns the encoded certificate covering a slot, if any.
func (w *WindowState) Cert(seq types.SeqNum) ([]byte, bool) {
	enc, ok := w.certs[seq]
	return enc, ok
}

// Stash buffers a preprepare whose covering certificate has not arrived.
func (w *WindowState) Stash(pp *types.Preprepare) { w.pending[pp.Seq] = pp }

// Admit accepts a structurally verified certificate at its chain position,
// plus any buffered successors it unblocks, and returns the stashed
// preprepares whose digests the accepted windows certify, in slot order. A
// certificate ahead of the expected counter value is buffered (async
// verification completions may arrive out of order); one behind it, or one
// that contradicts the chain position, is dropped — by uniqueness of the
// attested chain it is either stale or forged.
func (w *WindowState) Admit(wc *crypto.WindowCert, enc []byte) []*types.Preprepare {
	var ready []*types.Preprepare
	for wc != nil {
		if wc.Att.Value > w.nextValue {
			if len(w.waiting) < windowPendingCap {
				w.waiting[wc.Att.Value] = &pendingWindow{wc: wc, enc: enc}
			}
			return ready
		}
		if wc.Att.Value != w.nextValue || wc.View != w.view ||
			wc.Start != w.lastCovered+1 || wc.Prev != w.prev {
			return ready
		}
		for i, d := range wc.Digests {
			seq := wc.Start + types.SeqNum(i)
			w.certs[seq] = enc
			w.covered[seq] = d
			if pp := w.pending[seq]; pp != nil {
				delete(w.pending, seq)
				if pp.Batch.Digest == d {
					ready = append(ready, pp)
				}
			}
		}
		w.prev = wc.Att.Digest
		w.tip = w.prev
		w.lastCovered = wc.End()
		w.nextValue = wc.Att.Value + 1
		next := w.waiting[w.nextValue]
		delete(w.waiting, w.nextValue)
		if next == nil {
			return ready
		}
		wc, enc = next.wc, next.enc
	}
	return ready
}

// GC drops per-slot bookkeeping at and below the stable checkpoint.
func (w *WindowState) GC(stable types.SeqNum) {
	for seq := range w.certs {
		if seq <= stable {
			delete(w.certs, seq)
		}
	}
	for seq := range w.covered {
		if seq <= stable {
			delete(w.covered, seq)
		}
	}
	for seq := range w.pending {
		if seq <= stable {
			delete(w.pending, seq)
		}
	}
}

// ValidateNewViewWindow checks a windowed NewView's covering certificate at
// a backup: with re-proposals, one certificate minted under the fresh
// counter incarnation (value CounterInit.Value+1, i.e. the first append
// after Create seeded the counter at the stable sequence number) must chain
// from the new view's genesis, start right above stable, and certify every
// proposal's slot/digest. Callers have already verified CounterInit itself.
// Returns the decoded certificate (nil when nothing was re-proposed) and
// whether the NewView is acceptable.
func ValidateNewViewWindow(env engine.Env, counterID uint32, nv *types.NewView,
	primary types.ReplicaID) (*crypto.WindowCert, bool) {
	stable := types.SeqNum(nv.CounterInit.Value)
	if len(nv.Proposals) == 0 {
		return nil, len(nv.WindowCert) == 0
	}
	wc, err := crypto.DecodeWindowCert(nv.WindowCert)
	if err != nil {
		return nil, false
	}
	a := wc.Att
	if a.Replica != primary || a.Counter != counterID ||
		a.Epoch != nv.CounterInit.Epoch || a.Value != nv.CounterInit.Value+1 {
		return nil, false
	}
	if wc.View != nv.View || wc.Start != stable+1 ||
		wc.Prev != crypto.WindowGenesis(nv.View) ||
		len(wc.Digests) != len(nv.Proposals) {
		return nil, false
	}
	for _, pp := range nv.Proposals {
		if pp.Attest != nil || pp.Batch == nil || !wc.Covers(pp.Seq, pp.Batch.Digest) {
			return nil, false
		}
	}
	if !env.Crypto().VerifyWC(wc) || !env.VerifyAttestation(a) {
		return nil, false
	}
	return wc, true
}

// windowBinding is one slot's proven binding extracted from a view-change's
// PreparedProofs: the preprepare plus the covering certificate's counter
// value, which orders competing bindings across a quorum.
type windowBinding struct {
	pp    *types.Preprepare
	value uint64
}

// validWindowProofSet checks a view-change's windowed PreparedProofs as ONE
// chained set, not proof by proof. Per certificate it enforces what a single
// certificate can prove: minted by the trusted component of the primary of
// `view` (any other replica can AppendF arbitrary chains on its own counter),
// under the counter incarnation `epoch` this replica recorded for that view,
// with an intact chain fold and a genuine attestation covering each proof's
// slot/digest. Across certificates it enforces the progression Admit enforces
// on the live path: strictly consecutive counter values, contiguous sequence
// ranges, and prev-links matching the preceding attested tip — so a set can
// present at most one chain segment, never a re-anchored fork alongside the
// real chain. (The segment cannot be anchored at WindowGenesis here: a
// checkpoint may have GC'd the earlier windows.)
//
// Proofs are only accepted for the validator's current view: honest replicas
// never carry certificates from another view (Reset clears them), and the
// epoch of any other view's counter incarnation is unknowable here.
func validWindowProofSet(env engine.Env, cfg *engine.Config, counterID uint32,
	view types.View, epoch uint32, prepared []*types.PreparedProof) ([]windowBinding, bool) {
	if len(prepared) == 0 {
		return nil, true
	}
	primary := types.Primary(view, cfg.N)
	certs := make(map[string]*crypto.WindowCert)
	bindings := make([]windowBinding, 0, len(prepared))
	for _, pr := range prepared {
		if pr == nil || pr.Preprepare == nil || pr.Preprepare.Batch == nil || len(pr.WC) == 0 {
			return nil, false
		}
		pp := pr.Preprepare
		if pp.View != view || pp.Attest != nil {
			return nil, false
		}
		wc, seen := certs[string(pr.WC)]
		if !seen {
			dec, err := crypto.DecodeWindowCert(pr.WC)
			if err != nil {
				return nil, false
			}
			a := dec.Att
			if dec.View != view || a.Replica != primary || a.Counter != counterID || a.Epoch != epoch {
				return nil, false
			}
			if !env.Crypto().VerifyWC(dec) || !env.VerifyAttestation(a) {
				return nil, false
			}
			certs[string(pr.WC)] = dec
			wc = dec
		}
		if !wc.Covers(pp.Seq, pp.Batch.Digest) {
			return nil, false
		}
		bindings = append(bindings, windowBinding{pp: pp, value: wc.Att.Value})
	}
	ordered := make([]*crypto.WindowCert, 0, len(certs))
	for _, wc := range certs {
		ordered = append(ordered, wc)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Att.Value < ordered[j].Att.Value })
	for i := 1; i < len(ordered); i++ {
		prev, next := ordered[i-1], ordered[i]
		if next.Att.Value != prev.Att.Value+1 || next.Start != prev.End()+1 ||
			next.Prev != prev.Att.Digest {
			return nil, false
		}
	}
	return bindings, true
}

// CollectWindowSlots merges the windowed slot reports across a view-change
// quorum into the slot→preprepare map the new primary re-proposes from.
// Each ViewChange's proofs are (re-)validated as a chained set — an invalid
// set contributes nothing — and per-slot conflicts are resolved toward the
// LOWEST covering counter value, never last-writer-wins. That choice is
// safe: a slot only commits (or speculatively executes) through Admit's
// exact value progression, so the certificates behind committed slots form
// the unique value-contiguous prefix of the view's chain, and any
// genuinely-attested conflicting certificate a Byzantine primary can still
// mint must burn a LATER counter value. Equal values with different digests
// would need two attestations for one (epoch, value) — impossible for a
// correct trusted component — but are tie-broken on digest bytes so every
// replica resolves identically regardless.
func CollectWindowSlots(env engine.Env, cfg *engine.Config, counterID uint32,
	view types.View, epoch uint32, vcs []*types.ViewChange) (types.SeqNum, map[types.SeqNum]*types.Preprepare) {
	var stable types.SeqNum
	best := make(map[types.SeqNum]windowBinding)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		bindings, ok := validWindowProofSet(env, cfg, counterID, view, epoch, vc.Prepared)
		if !ok {
			continue
		}
		for _, b := range bindings {
			cur, seen := best[b.pp.Seq]
			if !seen || b.value < cur.value ||
				(b.value == cur.value &&
					bytes.Compare(b.pp.Batch.Digest[:], cur.pp.Batch.Digest[:]) < 0) {
				best[b.pp.Seq] = b
			}
		}
	}
	slots := make(map[types.SeqNum]*types.Preprepare, len(best))
	for seq, b := range best {
		slots[seq] = b.pp
	}
	return stable, slots
}

// CheckNewViewProposals cross-checks a windowed NewView at a backup: every
// slot binding resolvable from the embedded view-change quorum (under the
// same chained-set rules and lowest-value resolution the primary must apply)
// has to reappear in the re-proposals with the same digest. A primary —
// honest but fed a forged proof, or itself Byzantine — that re-binds a
// reported slot is rejected. Unresolvable slots (e.g. proofs from a view
// this replica never installed) constrain nothing, so a lagging backup
// accepts what it cannot check rather than stalling the view change.
func CheckNewViewProposals(env engine.Env, cfg *engine.Config, counterID uint32,
	view types.View, epoch uint32, nv *types.NewView) bool {
	if nv.CounterInit == nil {
		return false
	}
	stable := types.SeqNum(nv.CounterInit.Value)
	_, slots := CollectWindowSlots(env, cfg, counterID, view, epoch, nv.ViewChanges)
	assigned := make(map[types.SeqNum]types.Digest, len(nv.Proposals))
	for _, pp := range nv.Proposals {
		if pp.Batch != nil {
			assigned[pp.Seq] = pp.Batch.Digest
		}
	}
	for seq, pp := range slots {
		if seq <= stable {
			continue
		}
		if d, ok := assigned[seq]; !ok || d != pp.Batch.Digest {
			return false
		}
	}
	return true
}
