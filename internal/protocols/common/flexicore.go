package common

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/types"
)

// The FlexiTrust core (paper Section 8): the one transformation Flexi-BFT
// and Flexi-ZZ share, written once.
//
// Skeleton. n = 3f+1 replicas with 2f+1 quorums. Only the primary touches
// its trusted counter: AppendF binds a batch digest to the next counter
// value, which IS the sequence number, so the primary cannot equivocate and
// instances run in parallel — ordering is enforced at execution only. A
// backup admits a proposal once its binding is certified (the attestation's
// shape, then its verification, off the event goroutine where the Env has a
// pool) and hands the slot to the protocol: FlexiHooks.Certified is the
// whole difference between voting (Flexi-BFT) and executing speculatively
// (Flexi-ZZ). A view change carries every slot above the stable checkpoint;
// the incoming primary Create()s a fresh counter incarnation (epoch) seeded
// at the stable sequence number, re-proposes the reported slots under it and
// fills gaps with no-ops; backups validate the NewView, then adopt the epoch.
//
// Safety, per-batch path: the trusted component mints one attestation per
// (epoch, value), and a proposal is admitted only when its attestation is
// the view primary's, on the sequencing counter, under the epoch this
// replica recorded for the view, with value == seq and digest == the batch's
// — so at most one batch is ever bound to a slot within a view. Windowed
// path (Cfg.AttestWindow > 1): one AppendF certifies a chained window of
// batches; the acceptance rules and their safety argument are in window.go.

// flexiCounter is the trusted counter the primary allocates sequence numbers
// from (the paper's q).
const flexiCounter = 0

// FlexiHooks is what a FlexiTrust protocol adds to the core: what happens to
// a slot once its binding is settled, and the private state that rides along.
type FlexiHooks interface {
	// Proposed runs at the primary for a slot it just recorded and broadcast.
	Proposed(pp *types.Preprepare)
	// Certified runs at a backup for a recorded slot whose binding verified.
	Certified(pp *types.Preprepare)
	// OnPrepare handles a Prepare message (a vote, or a sequential-ablation
	// acknowledgement).
	OnPrepare(from types.ReplicaID, m *types.Prepare)
	// Report appends this replica's evidence for a slot to its ViewChange in
	// the protocol's wire shape; wc is the covering window certificate, nil on
	// the per-batch path.
	Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte)
	// InstallNewView installs a NewView's proposals — built here when primary
	// is this replica, validated by ProcessNewView otherwise. stable is the
	// sequence number the fresh counter incarnation was seeded at.
	InstallNewView(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID)
	// GC drops protocol-private per-slot state at and below stable.
	GC(stable types.SeqNum)
}

// FlexiCore is the engine.Protocol and Hooks implementation both FlexiTrust
// protocols embed.
type FlexiCore struct {
	Base

	// Preprepares holds the recorded proposal per slot above the stable
	// checkpoint.
	Preprepares map[types.SeqNum]*types.Preprepare
	// CurEpoch is the expected counter incarnation; it advances when a new
	// primary Create()s a fresh counter after a view change.
	CurEpoch uint32

	// win is the windowed-attestation state; disabled, every path below is
	// the per-batch one.
	win         *WindowState
	slot        FlexiHooks
	speculative bool
}

// Configure prepares the core for cfg at construction time; speculative marks
// client responses as speculative (engine.Meta.Speculative).
func (c *FlexiCore) Configure(cfg engine.Config, hooks FlexiHooks, speculative bool) {
	c.Preprepares = make(map[types.SeqNum]*types.Preprepare)
	c.win = NewWindowState(cfg.AttestWindow)
	c.slot = hooks
	c.speculative = speculative
	c.Cfg = cfg
	c.VCQuorum = cfg.VoteQuorum2f1()
	c.CkptQuorum = cfg.VoteQuorum2f1()
}

// Init implements engine.Protocol.
func (c *FlexiCore) Init(env engine.Env) {
	c.InitBase(env, c.Cfg, c, c.respond)
	if c.win.Enabled() {
		// View 0 genesis: nothing covered, the counter's first AppendF
		// mints value 1.
		c.win.Reset(0, 0, 1)
		c.Cfg.Observer.Audit().RegisterWindowNamespace(c.Cfg.TrustedNamespace)
	}
}

// OnRequest implements engine.Protocol.
func (c *FlexiCore) OnRequest(req *types.ClientRequest) { c.HandleRequest(req) }

// OnMessage implements engine.Protocol.
func (c *FlexiCore) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		c.onPreprepare(from, msg)
	case *types.Prepare:
		c.slot.OnPrepare(from, msg)
	case *types.WindowAttest:
		c.onWindowAttest(from, msg)
	case *types.Checkpoint:
		c.HandleCheckpoint(msg)
	case *types.ViewChange:
		c.HandleViewChange(msg)
	case *types.NewView:
		c.HandleNewView(from, msg)
	case *types.Forward:
		c.HandleForward(msg)
	case *types.ClientResend:
		c.HandleResend(msg.Request)
	}
}

// OnTimer implements engine.Protocol.
func (c *FlexiCore) OnTimer(id types.TimerID) {
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

// ProposeBatch implements Hooks. Per batch, the instance's single
// trusted-component access binds the digest to the next counter value.
// Windowed, the sequence number is assigned locally, the digest joins the
// running chain, and the counter is touched only when the window flushes.
func (c *FlexiCore) ProposeBatch(b *types.Batch) {
	pp := &types.Preprepare{View: c.View, Seq: c.LastProposed + 1, Batch: b}
	if !c.win.Enabled() {
		att, err := c.Env.Trusted().AppendF(flexiCounter, b.Digest)
		if err != nil {
			c.Env.Logf("flexitrust: AppendF failed: %v", err)
			return
		}
		pp.Seq, pp.Attest = types.SeqNum(att.Value), att
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
func (c *FlexiCore) flushWindow() {
	if enc := c.win.Flush(c.Env, &c.Cfg, flexiCounter); enc != nil {
		c.Env.Broadcast(&types.WindowAttest{Replica: c.Env.ID(), Cert: enc})
	}
	if c.win.Open() {
		c.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: c.View}, c.Cfg.BatchTimeout)
	}
}

// onWindowAttest verifies a covering certificate at a backup and certifies
// every stashed proposal it (and any buffered successor) covers.
func (c *FlexiCore) onWindowAttest(from types.ReplicaID, m *types.WindowAttest) {
	if !c.win.Enabled() || c.InViewChange || from != c.PrimaryID() || m.Replica != from {
		return
	}
	wc, err := crypto.DecodeWindowCert(m.Cert)
	if err != nil {
		return
	}
	a := wc.Att
	if a.Replica != from || a.Counter != flexiCounter || a.Epoch != c.CurEpoch ||
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

// onPreprepare handles the primary's proposal at a backup. The attestation
// check runs through VerifyAttestationAsync — the parallel window keeps many
// proposals in flight, which is exactly the concurrency a batched verifier
// amortizes across — so the continuation re-runs every guard: commits,
// checkpoints, or a view change may have landed in between. (An Env without a
// pool completes synchronously and the re-check is a no-op.)
func (c *FlexiCore) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !c.preprepareGuards(from, pp) {
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
	if !attestBinds(pp, from, c.CurEpoch) {
		return
	}
	c.Env.VerifyAttestationAsync(pp.Attest, func(ok bool) {
		if ok && c.preprepareGuards(from, pp) && pp.Attest.Epoch == c.CurEpoch {
			c.certified(pp)
		}
	})
}

// preprepareGuards are the stateful admission checks for a proposal, run
// before verification is dispatched and again when its result lands. A
// recorded slot is never overwritten: the attested counter makes a
// conflicting proposal for it impossible, so a second one is a duplicate.
func (c *FlexiCore) preprepareGuards(from types.ReplicaID, pp *types.Preprepare) bool {
	if !wellFormed(pp) || c.InViewChange || pp.View != c.View || from != c.PrimaryID() {
		return false
	}
	_, dup := c.Preprepares[pp.Seq]
	return !dup && pp.Seq > c.Ckpt.StableSeq()
}

// wellFormed is the shape every Preprepare taken off the wire — live, inside
// a view-change report, or as a NewView proposal — must have before anything
// dereferences it: the codec decodes Batch as optional.
func wellFormed(pp *types.Preprepare) bool { return pp != nil && pp.Batch != nil }

// attestBinds checks the structural binding of a per-batch proposal's
// attestation (everything except the cryptographic verification): minted by
// attestor's trusted component on the sequencing counter under epoch, for
// exactly this slot and batch.
func attestBinds(pp *types.Preprepare, attestor types.ReplicaID, epoch uint32) bool {
	a := pp.Attest
	return a != nil && a.Replica == attestor && a.Counter == flexiCounter && a.Epoch == epoch &&
		types.SeqNum(a.Value) == pp.Seq && a.Digest == pp.Batch.Digest
}

// certified records a proposal whose binding verified and hands the slot to
// the protocol.
func (c *FlexiCore) certified(pp *types.Preprepare) {
	c.Preprepares[pp.Seq] = pp
	c.slot.Certified(pp)
}

// respond builds the post-execution client response.
func (c *FlexiCore) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return // no-op gap filler
	}
	c.RespondAndCache(&types.Response{
		Replica:     c.Env.ID(),
		View:        c.View,
		Seq:         seq,
		Digest:      batch.Digest,
		Results:     results,
		Speculative: c.speculative,
	})
}

// --- Hooks: view changes, checkpoints ---

// BuildViewChange implements Hooks: the message carries every recorded slot
// above the stable checkpoint. Per batch the attestation itself proves the
// binding (committed slots survive because f+1 honest replicas hold their
// Preprepare). Windowed, a slot is provable only through its covering
// certificate; slots whose certificate never arrived were never acted on here
// and are dropped.
func (c *FlexiCore) BuildViewChange(types.View) *types.ViewChange {
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

// slotReports is the one accessor over a ViewChange's per-batch slot reports:
// Flexi-BFT's travel inside PreparedProofs, Flexi-ZZ's as bare Preprepares.
func slotReports(vc *types.ViewChange) []*types.Preprepare {
	out := make([]*types.Preprepare, 0, len(vc.Prepared)+len(vc.Preprepares))
	for _, pr := range vc.Prepared {
		var pp *types.Preprepare // stays nil for a nil proof; validation rejects it
		if pr != nil {
			pp = pr.Preprepare
		}
		out = append(out, pp)
	}
	return append(out, vc.Preprepares...)
}

// ValidateViewChange implements Hooks. Every per-batch report must bind its
// slot (reportBinds) and its attestation verify — a memo hit for every slot
// this replica already processed; windowed proofs are validated as one
// chained set (attestor, epoch, and chain progression pinned — see
// validWindowProofSet); attached quorum certificates must decode and pass
// one VerifyQC against the 2f+1 vote quorum.
func (c *FlexiCore) ValidateViewChange(vc *types.ViewChange) bool {
	if c.win.Enabled() {
		if _, ok := validWindowProofSet(c.Env, &c.Cfg, flexiCounter, c.View, c.CurEpoch, vc.Prepared); !ok ||
			len(vc.Preprepares) != 0 {
			return false
		}
	} else {
		for _, pp := range slotReports(vc) {
			if !c.reportBinds(pp, vc.NewView) || !c.Env.VerifyAttestation(pp.Attest) {
				return false
			}
		}
	}
	for _, pr := range vc.Prepared {
		if len(pr.QC) == 0 {
			continue
		}
		qc, err := crypto.DecodeQuorumCert(pr.QC)
		if err != nil || qc.Seq != pr.Preprepare.Seq || qc.Digest != pr.Preprepare.Batch.Digest ||
			!c.Env.Crypto().VerifyQC(qc, c.Cfg.VoteQuorum2f1()) {
			return false
		}
	}
	return true
}

// reportBinds checks a per-batch slot report carried by a ViewChange toward
// view target against the binding the live path enforces in onPreprepare: the
// report predates the target view, and its attestation is that view's
// primary's, on the sequencing counter, for exactly this slot and batch —
// any replica can AppendF an arbitrary digest on its OWN counter. The epoch
// is pinned to the incarnation this replica recorded when the report is from
// its current view; the incarnation of a view it never installed is
// unknowable here.
func (c *FlexiCore) reportBinds(pp *types.Preprepare, target types.View) bool {
	if !wellFormed(pp) || pp.Attest == nil || pp.View >= target {
		return false
	}
	epoch := pp.Attest.Epoch
	if pp.View == c.View {
		epoch = c.CurEpoch
	}
	return attestBinds(pp, types.Primary(pp.View, c.Cfg.N), epoch)
}

// collectSlots merges the slots reported across a view-change quorum toward
// view v on the per-batch path. Every report is re-checked against the
// binding (the view or epoch may have moved since its ViewChange was
// validated); one attestation per (epoch, value) then makes conflicting
// reports within a view impossible, and across views the later one — a
// re-proposal that superseded the slot — wins. The windowed path does NOT
// have that per-slot guarantee and resolves conflicts in CollectWindowSlots
// instead.
func (c *FlexiCore) collectSlots(v types.View, vcs []*types.ViewChange) (stable types.SeqNum, slots map[types.SeqNum]*types.Preprepare) {
	slots = make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pp := range slotReports(vc) {
			if !c.reportBinds(pp, v) {
				continue
			}
			if cur, ok := slots[pp.Seq]; !ok || pp.View > cur.View {
				slots[pp.Seq] = pp
			}
		}
	}
	return stable, slots
}

// BuildNewView implements Hooks: the incoming primary creates a fresh counter
// incarnation seeded below the first slot to re-propose, then re-proposes
// every slot it learned (no-ops fill gaps). Per batch each re-proposal spends
// its own AppendF. Windowed, the chain is re-anchored at the new view's
// genesis and ONE certificate (value stable+1 under the fresh incarnation)
// covers the entire range — the window cap is ignored here, the range is
// bounded by the checkpoint interval.
func (c *FlexiCore) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	var stable types.SeqNum
	var slots map[types.SeqNum]*types.Preprepare
	if c.win.Enabled() {
		// Windowed proofs are re-validated as chained sets and per-slot
		// conflicts resolved toward the lowest counter value; backups repeat
		// this exact computation in ProcessNewView to check the proposals.
		stable, slots = CollectWindowSlots(c.Env, &c.Cfg, flexiCounter, c.View, c.CurEpoch, vcs)
	} else {
		stable, slots = c.collectSlots(v, vcs)
	}
	maxSeq := stable
	for seq := range slots {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	createAtt, err := c.Env.Trusted().Create(flexiCounter, uint64(stable))
	if err != nil {
		c.Env.Logf("flexitrust: Create failed: %v", err)
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	c.CurEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt}
	if c.win.Enabled() {
		c.win.Reset(v, stable, createAtt.Value+1)
	}
	for seq := stable + 1; seq <= maxSeq; seq++ {
		pp := &types.Preprepare{View: v, Seq: seq, Batch: NoopBatch()}
		if reported, ok := slots[seq]; ok {
			pp.Batch = reported.Batch
		}
		if c.win.Enabled() {
			c.win.Append(seq, pp.Batch.Digest)
		} else {
			att, err := c.Env.Trusted().AppendF(flexiCounter, pp.Batch.Digest)
			if err != nil {
				c.Env.Logf("flexitrust: re-propose AppendF failed: %v", err)
				return nv
			}
			pp.Seq, pp.Attest = types.SeqNum(att.Value), att
		}
		nv.Proposals = append(nv.Proposals, pp)
	}
	if c.win.Open() {
		nv.WindowCert = c.win.Flush(c.Env, &c.Cfg, flexiCounter)
	}
	c.LastProposed = maxSeq
	c.slot.InstallNewView(nv, stable, c.Env.ID())
	return nv
}

// ProcessNewView implements Hooks (backup side).
func (c *FlexiCore) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !c.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	for _, pp := range nv.Proposals {
		if !wellFormed(pp) {
			return false
		}
	}
	primary := types.Primary(nv.View, c.Cfg.N)
	stable := types.SeqNum(nv.CounterInit.Value)
	if c.win.Enabled() {
		wc, ok := ValidateNewViewWindow(c.Env, flexiCounter, nv, primary)
		// Cross-check the re-proposals against the slots resolvable from the
		// embedded quorum (under the CURRENT epoch — before adopting the new
		// incarnation): a new primary re-binding a reported slot is rejected.
		if !ok || !CheckNewViewProposals(c.Env, &c.Cfg, flexiCounter, c.View, c.CurEpoch, nv) {
			return false
		}
		c.win.Reset(nv.View, stable, nv.CounterInit.Value+1)
		if wc != nil {
			c.win.Admit(wc, nv.WindowCert)
		}
	} else {
		for _, pp := range nv.Proposals {
			if !attestBinds(pp, primary, nv.CounterInit.Epoch) || !c.Env.VerifyAttestation(pp.Attest) {
				return false
			}
		}
	}
	// Validated: only now does this replica move to the new incarnation. A
	// rejected NewView must leave it on the epoch the view it is still in uses.
	c.CurEpoch = nv.CounterInit.Epoch
	c.slot.InstallNewView(nv, stable, primary)
	return true
}

// OnStableCheckpoint implements Hooks.
func (c *FlexiCore) OnStableCheckpoint(seq types.SeqNum) {
	if c.win.Enabled() {
		c.win.GC(seq)
	}
	for s := range c.Preprepares {
		if s <= seq {
			delete(c.Preprepares, s)
		}
	}
	c.slot.GC(seq)
}

// CheckpointAttestation implements Hooks: FlexiTrust checkpoints need no
// trusted-component access.
func (c *FlexiCore) CheckpointAttestation(types.SeqNum, types.Digest) *types.Attestation { return nil }

// SlotDigest reports the batch digest this replica holds for a sequence
// number, for tests asserting slot bindings survive view changes.
func (c *FlexiCore) SlotDigest(seq types.SeqNum) (types.Digest, bool) {
	pp, ok := c.Preprepares[seq]
	if !ok || pp.Batch == nil {
		return types.ZeroDigest, false
	}
	return pp.Batch.Digest, true
}
