// Package flexibft implements Flexi-BFT (paper Section 8.2, Figure 3): a
// two-phase FlexiTrust protocol derived from MinBFT/PBFT that runs on
// n = 3f+1 replicas with 2f+1 vote quorums and touches the trusted counter
// exactly once per consensus instance, at the primary only.
//
// Failure-free path:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ);  broadcast Preprepare(⟨T⟩c, Δ, k, v, σ)
//	replica: verify σ; broadcast Prepare(Δ, k, v, σ)
//	replica: on 2f+1 matching Prepares → commit; execute in k order; respond
//	client: f+1 matching responses
//
// Everything up to "verify σ" and the whole view change is common.FlexiCore,
// shared with Flexi-ZZ. What is Flexi-BFT's own: a certified slot is *voted
// for* (the primary's Preprepare doubles as its vote), a slot commits on 2f+1
// matching Prepares, view-change reports carry the commit's quorum
// certificate, and an installed NewView is re-voted. The o-variant
// (sequential, the paper's ablation) is the same code with
// Config.Parallel=false: the next instance waits for local execution.
package flexibft

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Meta describes Flexi-BFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-BFT",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             2,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's Flexi-BFT instance.
type Protocol struct {
	common.FlexiCore

	prepares  *engine.QuorumSet
	committed map[types.SeqNum]bool
	// qcs holds the encoded quorum certificate assembled when each slot
	// committed; carried in view-change prepared proofs and GC'd at stable
	// checkpoints.
	qcs map[types.SeqNum][]byte
}

// New constructs a Flexi-BFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		prepares:  engine.NewQuorumSet(),
		committed: make(map[types.SeqNum]bool),
		qcs:       make(map[types.SeqNum][]byte),
	}
	p.Configure(cfg, p, Meta.Speculative)
	return p
}

// Proposed implements common.FlexiHooks: the primary's Preprepare doubles as
// its Prepare vote.
func (p *Protocol) Proposed(pp *types.Preprepare) {
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()})
}

// Certified implements common.FlexiHooks: vote for the slot.
func (p *Protocol) Certified(pp *types.Preprepare) { p.vote(p.PrimaryID(), pp) }

// vote counts the primary's proposal as its vote, then adds and broadcasts
// this replica's own.
func (p *Protocol) vote(primary types.ReplicaID, pp *types.Preprepare) {
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(prep)
	p.addPrepare(prep)
}

// OnPrepare implements common.FlexiHooks: a backup's vote.
func (p *Protocol) OnPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from {
		return
	}
	p.addPrepare(m)
}

// addPrepare tallies a vote and commits on a 2f+1 quorum.
func (p *Protocol) addPrepare(m *types.Prepare) {
	n := p.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Cfg.VoteQuorum2f1() || p.committed[m.Seq] {
		return
	}
	pp, ok := p.Preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.committed[m.Seq] = true
	qc := crypto.AssembleQC(m.View, m.Seq, m.Digest, types.ZeroDigest,
		p.Cfg.N, p.prepares.Voters(m.View, m.Seq, m.Digest))
	p.qcs[m.Seq] = qc.Encode()
	p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
	p.Exec.Commit(m.Seq, pp.Batch)
	p.Batcher.Kick() // sequential variant: next instance may proceed
}

// Report implements common.FlexiHooks: a slot travels as a PreparedProof; no
// Prepare certificate is needed for a slot that merely prepared, but a
// committed slot's quorum certificate rides along.
func (p *Protocol) Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte) {
	vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.qcs[pp.Seq], WC: wc})
}

// InstallNewView implements common.FlexiHooks: the new view's proposals
// replace per-slot state, and a backup votes for every re-proposed slot it
// has not executed.
func (p *Protocol) InstallNewView(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID) {
	// A slot accepted in an old view that the quorum did not re-propose
	// committed nowhere; kept, it would refuse the new view's proposal for its
	// sequence number as a duplicate and wedge this replica there.
	for seq := range p.Preprepares {
		if seq > stable {
			delete(p.Preprepares, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.Preprepares[pp.Seq] = pp
		delete(p.committed, pp.Seq)
	}
	if primary == p.Env.ID() {
		// Its re-proposals are its votes, as its fresh proposals are: with f
		// replicas down the 2f backups alone are one short of the quorum.
		for _, pp := range nv.Proposals {
			p.Proposed(pp)
		}
		return
	}
	for _, pp := range nv.Proposals {
		if pp.Seq > p.Exec.LastExecuted() {
			p.vote(primary, pp)
		}
	}
}

// GC implements common.FlexiHooks.
func (p *Protocol) GC(stable types.SeqNum) {
	p.prepares.GC(stable)
	for s := range p.committed {
		if s <= stable {
			delete(p.committed, s)
		}
	}
	for s := range p.qcs {
		if s <= stable {
			delete(p.qcs, s)
		}
	}
}
