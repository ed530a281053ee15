// Package flexizz implements Flexi-ZZ (paper Section 8.3, Figure 4): a
// single-phase speculative FlexiTrust protocol derived from Zyzzyva/MinZZ,
// on n = 3f+1 replicas.
//
// Common case:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ); broadcast Preprepare(⟨T⟩c, Δ, k, v, σ);
//	         execute speculatively in k order; respond
//	replica: verify σ; execute speculatively in k order; respond
//	client: 2f+1 matching responses in matching views
//
// Unlike Zyzzyva and MinZZ, whose fast path needs responses from *all*
// replicas, Flexi-ZZ needs only n−f = 2f+1, so a single crashed replica
// does not knock it off the single-round path (the paper's Figure 7).
//
// Everything up to "verify σ" and the whole view change is common.FlexiCore,
// shared with Flexi-BFT. What is Flexi-ZZ's own: a certified slot is
// *executed speculatively* at once — the primary cannot equivocate, so no
// second phase is needed — and a replica that executed a slot the new view
// drops or rebinds rolls back to its last stable checkpoint when it installs
// the NewView. View-change reports are bare Preprepares on the per-batch
// path (each self-certifying through its attestation). The o-variant
// (Config.Parallel=false) gates the next instance on a 2f+1 acknowledgement
// quorum, since the primary executes at propose time.
package flexizz

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Meta describes Flexi-ZZ for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-ZZ",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             1,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return 2*f + 1 },
	Speculative:        true,
}

// Protocol is one replica's Flexi-ZZ instance.
type Protocol struct {
	common.FlexiCore

	// acks implement the sequential ablation (oFlexi-ZZ): with parallelism
	// disabled, the primary waits for a 2f+1 acknowledgement quorum per
	// instance before proposing the next.
	acks      *engine.QuorumSet
	lastAcked types.SeqNum
}

// New constructs a Flexi-ZZ replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{acks: engine.NewQuorumSet()}
	p.Configure(cfg, p, Meta.Speculative)
	p.CaptureSnapshots = cfg.CaptureSnapshots
	if !cfg.Parallel {
		p.SeqReady = func() bool { return p.lastAcked >= p.LastProposed }
	}
	p.StableWindowAnchor = true
	return p
}

// Proposed implements common.FlexiHooks: the primary executes speculatively
// like everyone else — windowed too, since it produced the chain it will
// attest — but on the execution pipeline stage, not inline with proposal
// emission.
func (p *Protocol) Proposed(pp *types.Preprepare) {
	p.Env.Defer(func() { p.Exec.Commit(pp.Seq, pp.Batch) })
}

// Certified implements common.FlexiHooks: execute the slot speculatively.
func (p *Protocol) Certified(pp *types.Preprepare) {
	p.Exec.Commit(pp.Seq, pp.Batch)
	if !p.Cfg.Parallel {
		// Sequential ablation: acknowledge so the primary's pipeline can
		// release the next instance.
		p.Env.Send(p.PrimaryID(), &types.Prepare{
			View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID(),
		})
	}
	p.Batcher.Kick()
}

// OnPrepare implements common.FlexiHooks: it counts sequential-ablation
// acknowledgements at the primary; a 2f+1 quorum (2f others plus the
// primary) releases the next instance.
func (p *Protocol) OnPrepare(from types.ReplicaID, m *types.Prepare) {
	if p.Cfg.Parallel || !p.IsPrimary() || m.View != p.View || m.Replica != from {
		return
	}
	n := p.acks.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n >= 2*p.Cfg.F && m.Seq > p.lastAcked {
		p.lastAcked = m.Seq
		p.acks.GC(m.Seq)
		p.Batcher.Kick()
	}
}

// Report implements common.FlexiHooks: per batch a Preprepare is
// self-certifying and travels bare; windowed it is not, and travels as a
// PreparedProof bundling the covering certificate.
func (p *Protocol) Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte) {
	if wc == nil {
		vc.Preprepares = append(vc.Preprepares, pp)
		return
	}
	vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, WC: wc})
}

// InstallNewView implements common.FlexiHooks: install the re-proposed log,
// rolling back any speculative suffix that conflicts with it.
func (p *Protocol) InstallNewView(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID) {
	if primary == p.Env.ID() {
		// Re-proposed slots came from a view-change quorum; the sequential
		// ablation's pipeline starts unblocked in the new view.
		p.lastAcked = p.LastProposed
	}
	if p.mustRollback(nv, stable) {
		resume := p.RollbackToStable()
		p.Env.Logf("flexizz: rolled back speculative suffix to seq %d", resume)
		// Replay the retained prefix between our (possibly older) local
		// snapshot and the quorum's stable point.
		for seq := resume + 1; seq <= stable; seq++ {
			if pp, ok := p.Preprepares[seq]; ok {
				p.Exec.Commit(seq, pp.Batch)
			}
		}
	}
	for seq := range p.Preprepares {
		if seq > stable {
			delete(p.Preprepares, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.Preprepares[pp.Seq] = pp
		p.Exec.Commit(pp.Seq, pp.Batch) // re-execute / fill, in order
	}
}

// mustRollback reports whether this replica speculatively executed a slot
// the new view assigns differently (or dropped).
func (p *Protocol) mustRollback(nv *types.NewView, stable types.SeqNum) bool {
	if p.Exec.LastExecuted() <= stable {
		return false
	}
	assigned := make(map[types.SeqNum]types.Digest, len(nv.Proposals))
	for _, pp := range nv.Proposals {
		assigned[pp.Seq] = pp.Batch.Digest
	}
	for seq := stable + 1; seq <= p.Exec.LastExecuted(); seq++ {
		pp, executedHere := p.Preprepares[seq]
		if !executedHere {
			continue
		}
		if d, ok := assigned[seq]; !ok || d != pp.Batch.Digest {
			return true
		}
	}
	return false
}

// GC implements common.FlexiHooks: acknowledgement tallies are dropped as
// each quorum completes, so nothing here is keyed by the stable checkpoint.
func (p *Protocol) GC(types.SeqNum) {}
