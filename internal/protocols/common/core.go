package common

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/types"
)

// The counter-sequenced core: the paper's dissection, written once. MinBFT,
// MinZZ, Flexi-BFT and Flexi-ZZ all bind a batch to a slot by attesting its
// digest on the primary's trusted counter — the attested value IS the
// sequence number, so at most one batch is ever bound to a slot within a view
// — and differ along two axes only: how that binding is sequenced (Sequencing,
// below) and what a replica does with a bound slot (SlotAction: vote, or
// execute speculatively; actions.go). Section 8 states FlexiTrust as "MinBFT
// and MinZZ with three changes", and Sequencing's three fields are those
// changes; everything else — proposing, admitting a proposal, the view change,
// checkpoint GC — is this file for all four.
//
// Skeleton. The primary binds each batch with one trusted access and
// broadcasts it. A backup admits a proposal whose attestation is the view
// primary's, on the sequencing counter, under the counter incarnation (epoch)
// this replica recorded for the view, with value == seq and digest == the
// batch's, once that attestation verifies; the slot then goes to the action.
// A view change carries every slot above the stable checkpoint; the incoming
// primary Create()s a fresh incarnation seeded at the quorum's stable sequence
// number, re-proposes the reported slots under it and fills gaps with no-ops;
// backups validate the NewView, then adopt the epoch. (Classic MinBFT
// continues the new primary's own counter; Create — which TrInc-class
// hardware provides — keeps sequence numbers stable across views in both
// modes. The failure-free path is unaffected.)
//
// Every replica attests (TrustBFT; Section 4). n = 2f+1 with f+1 quorums: two
// quorums share one replica, and that suffices because no replica, faulty or
// not, can make its trusted component attest two batches at one counter
// value. The price is the paper's Section 7: each backup spends an access of
// its own per slot (a USIG binding handed to the action; checkpoints carry
// one too) and its counter can only move forward, so it admits proposals
// strictly in sequence order through one in-order buffer, and the primary
// keeps one instance in flight. With nothing to overlap, the proposal's
// attestation is verified inline.
//
// Only the primary attests (FlexiTrust; Section 8). n = 3f+1 with 2f+1
// quorums, which intersect in an honest replica whatever the backups'
// hardware does, so backups never touch theirs: proposals are admitted in any
// order, many are in flight, and their attestations verify off the event
// goroutine where the Env has a pool — ordering is enforced at execution
// only. Because the counter is touched by the primary alone, one access can
// also certify a chained window of batches (Cfg.AttestWindow > 1); the
// acceptance rules and their safety argument are in window.go.

// Trusted counter identifiers.
const (
	// seqCounter is the counter the primary allocates sequence numbers from
	// (the paper's q).
	seqCounter = 0
	// usigCounter binds what a backup sends when every replica attests.
	usigCounter = 1
)

// Sequencing describes how a counter-sequenced protocol binds batches to
// slots.
type Sequencing struct {
	// HostSequenced selects the binder, used for fresh proposals and for a
	// new view's re-proposals alike: Append(q, ⊥, Δ) on the host-sequenced
	// stream, or the restricted AppendF(q, Δ).
	HostSequenced bool
	// EveryReplica makes every replica attest, not only the primary; see the
	// file comment for all that follows from it.
	EveryReplica bool
	// Quorum is f+1 of 2f+1 replicas, or 2f+1 of 3f+1.
	Quorum func(engine.Config) int
}

var (
	// TrustBFT is how MinBFT and MinZZ sequence (Section 4).
	TrustBFT = Sequencing{HostSequenced: true, EveryReplica: true, Quorum: engine.Config.VoteQuorumF1}
	// FlexiTrust is how Flexi-BFT and Flexi-ZZ sequence (Section 8).
	FlexiTrust = Sequencing{Quorum: engine.Config.VoteQuorum2f1}
)

// SlotAction is what a protocol does with a slot once its binding is settled,
// and the private state that rides along.
type SlotAction interface {
	// Proposed runs at the primary for a slot it just recorded and broadcast.
	Proposed(pp *types.Preprepare)
	// Certified runs at a backup for a recorded slot whose binding verified;
	// usig is this replica's own attestation of it when every replica attests.
	Certified(pp *types.Preprepare, usig *types.Attestation)
	// OnPrepare handles a Prepare message (a vote, or a sequential pipeline's
	// acknowledgement).
	OnPrepare(from types.ReplicaID, m *types.Prepare)
	// Report appends this replica's evidence for a slot to its ViewChange in
	// the protocol's wire shape; wc is the covering window certificate, nil on
	// the per-batch path.
	Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte)
	// Install installs a NewView's proposals — built here when primary is this
	// replica, validated by ProcessNewView otherwise. stable is the sequence
	// number the fresh counter incarnation was seeded at.
	Install(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID)
	// GC drops action-private per-slot state at and below stable.
	GC(stable types.SeqNum)
}

// Core is the engine.Protocol and Hooks implementation the four
// counter-sequenced protocols embed.
type Core struct {
	Base

	// Preprepares holds the recorded proposal per slot above the stable
	// checkpoint.
	Preprepares map[types.SeqNum]*types.Preprepare
	// CurEpoch is the expected counter incarnation; it advances when a new
	// primary Create()s a fresh counter after a view change.
	CurEpoch uint32

	seq  Sequencing
	slot SlotAction
	// win is the windowed-attestation state; disabled, every path below is
	// the per-batch one.
	win *WindowState

	// The in-order admission buffer (EveryReplica only): verified proposals
	// ahead of nextAccept, the next sequence number this replica's own
	// counter may attest.
	buffered   map[types.SeqNum]*types.Preprepare
	nextAccept types.SeqNum
}

// Configure prepares the core for cfg at construction time.
func (c *Core) Configure(cfg engine.Config, seq Sequencing, slot SlotAction) {
	window := cfg.AttestWindow
	if seq.EveryReplica {
		// Section 7: counters that attest in consensus order cannot overlap
		// instances, and every access is a sequence number — nothing to
		// amortize.
		cfg.Parallel, window = false, 0
		c.buffered = make(map[types.SeqNum]*types.Preprepare)
		c.nextAccept = 1
	}
	c.Preprepares = make(map[types.SeqNum]*types.Preprepare)
	c.win = NewWindowState(window)
	c.seq, c.slot = seq, slot
	c.Cfg = cfg
	c.Quorum = seq.Quorum(cfg)
}

// Init implements engine.Protocol.
func (c *Core) Init(env engine.Env) {
	c.InitBase(env, c, c.Respond)
	if c.win.Enabled() {
		// View 0 genesis: nothing covered, the counter's first AppendF
		// mints value 1.
		c.win.Reset(0, 0, 1)
		c.Cfg.Observer.Audit().RegisterWindowNamespace(c.Cfg.TrustedNamespace)
	}
}

// OnMessage implements engine.Protocol.
func (c *Core) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		c.onPreprepare(from, msg)
	case *types.Prepare:
		c.slot.OnPrepare(from, msg)
	case *types.WindowAttest:
		c.onWindowAttest(from, msg)
	default:
		c.HandleShared(from, m)
	}
}

// OnTimer implements engine.Protocol.
func (c *Core) OnTimer(id types.TimerID) {
	if id.Kind == types.TimerWindowFlush {
		// A stale deadline from an earlier primaryship carries that view's id
		// and must not flush the current partial window early.
		if c.win.Enabled() && c.IsPrimary() && !c.InViewChange && id.View == c.View {
			c.flushWindow()
		}
		return
	}
	c.HandleBaseTimer(id)
}

// bind spends a proposal's trusted access and makes the attested counter
// value its sequence number.
func (c *Core) bind(pp *types.Preprepare) bool {
	var att *types.Attestation
	var err error
	if c.seq.HostSequenced {
		att, err = c.Env.Trusted().Append(seqCounter, 0, pp.Batch.Digest)
	} else {
		att, err = c.Env.Trusted().AppendF(seqCounter, pp.Batch.Digest)
	}
	if err != nil {
		c.Env.Logf("binding slot %d to the trusted counter failed: %v", pp.Seq, err)
		return false
	}
	pp.Seq, pp.Attest = types.SeqNum(att.Value), att
	return true
}

// usig spends one access of this replica's own counter on d when every
// replica attests: per slot it admits or re-votes, and per checkpoint. ok is
// false only if that access failed.
func (c *Core) usig(d types.Digest) (att *types.Attestation, ok bool) {
	if !c.seq.EveryReplica {
		return nil, true
	}
	att, err := c.Env.Trusted().Append(usigCounter, 0, d)
	if err != nil {
		c.Env.Logf("usig Append failed: %v", err)
	}
	return att, err == nil
}

// ProposeBatch implements Hooks. Per batch, the instance's single
// trusted-component access binds the digest to the next counter value.
// Windowed, the sequence number is assigned locally, the digest joins the
// running chain, and the counter is touched only when the window flushes.
func (c *Core) ProposeBatch(b *types.Batch) {
	pp := &types.Preprepare{View: c.View, Seq: c.LastProposed + 1, Batch: b}
	if !c.win.Enabled() && !c.bind(pp) {
		return
	}
	c.LastProposed = pp.Seq
	c.Preprepares[pp.Seq] = pp
	c.Env.Broadcast(pp)
	c.slot.Proposed(pp)
	if !c.win.Enabled() {
		return
	}
	if c.win.Append(pp.Seq, b.Digest) {
		c.flushWindow()
	} else if c.win.Len() == 1 {
		// First batch of a fresh window: bound how long a partial window
		// may sit unattested. Re-arming the same timer id on each new
		// window invalidates the previous window's (now-stale) deadline.
		c.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: c.View}, c.Cfg.BatchTimeout)
	}
}

// flushWindow spends the window's single counter access and publishes the
// covering certificate. If the window is still open afterwards — AppendF
// failed and left the batches unattested — the flush deadline is re-armed so
// already-broadcast proposals do not sit uncertified until a view change.
func (c *Core) flushWindow() {
	if enc := c.win.Flush(c.Env, &c.Cfg, seqCounter); enc != nil {
		c.Env.Broadcast(&types.WindowAttest{Replica: c.Env.ID(), Cert: enc})
	}
	if c.win.Open() {
		c.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: c.View}, c.Cfg.BatchTimeout)
	}
}

// onWindowAttest verifies a covering certificate at a backup and certifies
// every stashed proposal it (and any buffered successor) covers.
func (c *Core) onWindowAttest(from types.ReplicaID, m *types.WindowAttest) {
	if !c.win.Enabled() || c.InViewChange || from != c.PrimaryID() || m.Replica != from {
		return
	}
	wc, err := crypto.DecodeWindowCert(m.Cert)
	if err != nil {
		return
	}
	a := wc.Att
	if a.Replica != from || a.Counter != seqCounter || a.Epoch != c.CurEpoch ||
		wc.View != c.View || !c.Env.Crypto().VerifyWC(wc) {
		return
	}
	c.Env.VerifyAttestationAsync(a, func(ok bool) {
		if !ok || c.InViewChange || wc.View != c.View || a.Epoch != c.CurEpoch {
			return
		}
		for _, pp := range c.win.Admit(wc, m.Cert) {
			if c.preprepareGuards(c.PrimaryID(), pp) {
				c.certified(pp)
			}
		}
	})
}

// onPreprepare handles the primary's proposal at a backup. When only the
// primary attests, the check runs through VerifyAttestationAsync — the
// parallel window keeps many proposals in flight, which is exactly the
// concurrency a batched verifier amortizes across — so the continuation
// re-runs every guard: commits, checkpoints, or a view change may have landed
// in between. (An Env without a pool completes synchronously and the re-check
// is a no-op.)
func (c *Core) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !c.preprepareGuards(from, pp) || !c.Admit(pp) {
		return
	}
	if c.win.Enabled() {
		// Windowed proposals carry no per-batch attestation; the slot waits
		// for the covering WindowAttest. A certificate that arrived first
		// releases it immediately — but only if the digests agree, since the
		// chain, not the preprepare, is authoritative.
		if pp.Attest != nil {
			return
		}
		if d, ok := c.win.CoveredDigest(pp.Seq); !ok {
			c.win.Stash(pp)
		} else if d == pp.Batch.Digest {
			c.certified(pp)
		}
		return
	}
	if !AttestBinds(pp, from, seqCounter, c.CurEpoch) {
		return
	}
	if c.seq.EveryReplica {
		if c.Env.VerifyAttestation(pp.Attest) {
			c.admitInOrder(pp)
		}
		return
	}
	c.Env.VerifyAttestationAsync(pp.Attest, func(ok bool) {
		if !ok || pp.Attest.Epoch != c.CurEpoch {
			return
		}
		if c.preprepareGuards(from, pp) {
			c.certified(pp)
			return
		}
		// The checkpoint went stable while this check was in flight, so the
		// slot no longer takes votes — but this replica has not executed it.
		// Adopt the batch: within one epoch the primary's counter attests at
		// most one batch per sequence number, and a stable checkpoint proves
		// f+1 honest replicas executed through it, so the attested batch is
		// the one they executed. Without this the replica never executes
		// again and silently spends the group's fault budget.
		if WellFormed(pp) && !c.InViewChange && pp.View == c.View && from == c.PrimaryID() &&
			pp.Seq <= c.Ckpt.StableSeq() && pp.Seq > c.Exec.LastExecuted() {
			c.Exec.Commit(pp.Seq, pp.Batch)
		}
	})
}

// preprepareGuards are the stateful admission checks for a proposal, run
// before verification is dispatched and again when its result lands. A
// recorded slot is never overwritten: the attested counter makes a
// conflicting proposal for it impossible, so a second one is a duplicate.
func (c *Core) preprepareGuards(from types.ReplicaID, pp *types.Preprepare) bool {
	if !WellFormed(pp) || c.InViewChange || pp.View != c.View || from != c.PrimaryID() {
		return false
	}
	if c.seq.EveryReplica {
		return pp.Seq >= c.nextAccept
	}
	_, dup := c.Preprepares[pp.Seq]
	return !dup && pp.Seq > c.Ckpt.StableSeq()
}

// admitInOrder certifies a verified proposal when it is the next in sequence
// and then every buffered successor it unblocks; one ahead of the sequence
// waits, because this replica's counter cannot attest a lower sequence number
// after a higher one.
func (c *Core) admitInOrder(pp *types.Preprepare) {
	c.buffered[pp.Seq] = pp
	for next := c.buffered[c.nextAccept]; next != nil; next = c.buffered[c.nextAccept] {
		delete(c.buffered, c.nextAccept)
		c.nextAccept++
		c.certified(next)
	}
}

// certified records a proposal whose binding verified and hands the slot to
// the action, with this replica's own attestation of it if every replica
// attests.
func (c *Core) certified(pp *types.Preprepare) {
	c.Preprepares[pp.Seq] = pp
	if usig, ok := c.usig(pp.Batch.Digest); ok {
		c.slot.Certified(pp, usig)
	}
}

// --- Hooks: view changes, checkpoints ---

// BuildViewChange implements Hooks: the message carries every recorded slot
// above the stable checkpoint. Per batch the attestation itself proves the
// binding (committed slots survive because a quorum's honest members hold
// their Preprepare). Windowed, a slot is provable only through its covering
// certificate; slots whose certificate never arrived were never acted on here
// and are dropped.
func (c *Core) BuildViewChange(types.View) *types.ViewChange {
	if c.win.Enabled() && c.IsPrimary() && c.win.Open() {
		// An honest deposed primary binds its open window before abandoning
		// the view, so every batch it proposed remains provable.
		c.flushWindow()
	}
	vc := &types.ViewChange{StableSeq: c.Ckpt.StableSeq()}
	for seq, pp := range c.Preprepares {
		if seq <= vc.StableSeq {
			continue
		}
		var wc []byte
		if c.win.Enabled() {
			var ok bool
			if wc, ok = c.win.Cert(seq); !ok {
				continue
			}
		}
		c.slot.Report(vc, pp, wc)
	}
	return vc
}

// ValidateViewChange implements Hooks. Per batch the reports are attested
// proposals (ValidAttestedReports); windowed proofs are validated as one
// chained set (attestor, epoch, and chain progression pinned — see
// validWindowProofSet), their quorum certificates like any other.
func (c *Core) ValidateViewChange(vc *types.ViewChange) bool {
	if !c.win.Enabled() {
		return c.ValidAttestedReports(vc, seqCounter, c.CurEpoch)
	}
	_, ok := validWindowProofSet(c.Env, &c.Cfg, seqCounter, c.View, c.CurEpoch, vc.Prepared)
	return ok && len(vc.Preprepares) == 0 && c.validQCs(vc)
}

// BuildNewView implements Hooks: the incoming primary creates a fresh counter
// incarnation seeded below the first slot to re-propose, then re-proposes
// every slot it learned (no-ops fill gaps). Per batch, reports are re-checked
// against the binding, one attestation per (epoch, value) makes conflicting
// reports within a view impossible, and each re-proposal spends its own
// access. Windowed — which has no such per-slot guarantee and resolves
// conflicts in CollectWindowSlots instead — the chain is re-anchored at the
// new view's genesis and ONE certificate (value stable+1 under the fresh
// incarnation) covers the entire range: the window cap is ignored here, the
// range is bounded by the checkpoint interval.
func (c *Core) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	var stable types.SeqNum
	var slots map[types.SeqNum]*types.Preprepare
	if c.win.Enabled() {
		// Windowed proofs are re-validated as chained sets and per-slot
		// conflicts resolved toward the lowest counter value; backups repeat
		// this exact computation in ProcessNewView to check the proposals.
		stable, slots = CollectWindowSlots(c.Env, &c.Cfg, seqCounter, c.View, c.CurEpoch, vcs)
	} else {
		stable, slots = CollectSlots(vcs, func(pp *types.Preprepare) bool {
			return c.ReportBinds(pp, v, seqCounter, c.CurEpoch)
		})
	}
	createAtt, err := c.Env.Trusted().Create(seqCounter, uint64(stable))
	if err != nil {
		c.Env.Logf("Create failed: %v", err)
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	c.CurEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt}
	bind := c.bind
	if c.win.Enabled() {
		c.win.Reset(v, stable, createAtt.Value+1)
		bind = func(pp *types.Preprepare) bool {
			c.win.Append(pp.Seq, pp.Batch.Digest)
			return true
		}
	}
	nv.Proposals = Repropose(v, stable, slots, bind)
	if c.win.Open() {
		nv.WindowCert = c.win.Flush(c.Env, &c.Cfg, seqCounter)
	}
	c.LastProposed = stable + types.SeqNum(len(nv.Proposals))
	c.install(nv, stable, c.Env.ID())
	return nv
}

// ProcessNewView implements Hooks (backup side).
func (c *Core) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !c.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	for _, pp := range nv.Proposals {
		if !c.Admit(pp) {
			return false
		}
	}
	primary := types.Primary(nv.View, c.Cfg.N)
	stable := types.SeqNum(nv.CounterInit.Value)
	if c.win.Enabled() {
		wc, ok := ValidateNewViewWindow(c.Env, seqCounter, nv, primary)
		// Cross-check the re-proposals against the slots resolvable from the
		// embedded quorum (under the CURRENT epoch — before adopting the new
		// incarnation): a new primary re-binding a reported slot is rejected.
		if !ok || !CheckNewViewProposals(c.Env, &c.Cfg, seqCounter, c.View, c.CurEpoch, nv) {
			return false
		}
		c.win.Reset(nv.View, stable, nv.CounterInit.Value+1)
		if wc != nil {
			c.win.Admit(wc, nv.WindowCert)
		}
	} else {
		for _, pp := range nv.Proposals {
			if !AttestBinds(pp, primary, seqCounter, nv.CounterInit.Epoch) || !c.Env.VerifyAttestation(pp.Attest) {
				return false
			}
		}
	}
	// Validated: only now does this replica move to the new incarnation. A
	// rejected NewView must leave it on the epoch the view it is still in uses.
	c.CurEpoch = nv.CounterInit.Epoch
	c.install(nv, stable, primary)
	return true
}

// install hands a NewView's proposals to the action. When every replica
// attests, the in-order buffer restarts right past the new view's log — not
// past whatever this replica admitted in the old view: a slot the quorum did
// not report is proposed afresh, and must be admitted again.
func (c *Core) install(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID) {
	if c.seq.EveryReplica {
		clear(c.buffered)
		c.nextAccept = stable + 1
		for _, pp := range nv.Proposals {
			c.nextAccept = max(c.nextAccept, pp.Seq+1)
		}
	}
	c.slot.Install(nv, stable, primary)
}

// OnStableCheckpoint implements Hooks.
func (c *Core) OnStableCheckpoint(seq types.SeqNum) {
	if c.win.Enabled() {
		c.win.GC(seq)
	}
	DropThrough(c.Preprepares, seq)
	c.slot.GC(seq)
}

// CheckpointAttestation implements Hooks: when every replica attests, a
// checkpoint carries an attestation of the replica's counter state bound to
// the checkpoint digest (one trusted access per checkpoint).
func (c *Core) CheckpointAttestation(_ types.SeqNum, state types.Digest) *types.Attestation {
	att, _ := c.usig(state)
	return att
}

// SlotDigest reports the batch digest this replica holds for a sequence
// number, for tests asserting slot bindings survive view changes.
func (c *Core) SlotDigest(seq types.SeqNum) (types.Digest, bool) {
	pp, ok := c.Preprepares[seq]
	if !ok || pp.Batch == nil {
		return types.ZeroDigest, false
	}
	return pp.Batch.Digest, true
}
