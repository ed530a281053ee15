// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov), the paper's 3f+1 baseline: three phases (Preprepare, Prepare,
// Commit), 2f+1 vote quorums, fully parallel consensus instances, and no
// trusted components.
//
// For the paper's Figure 5 microbenchmark ("impact of trusted counter and
// signature attestations on Pbft"), the protocol optionally threads trusted
// component accesses into its send paths via TrustPolicy — bars [b]–[g] are
// this protocol with different policies and cost models.
//
// The three phases and that instrumentation are this package; what a slot log
// needs whatever the phases around it — the shape check on a proposal off the
// wire, quorum certificates, collecting and re-proposing a view-change
// quorum's reports, installing the new view by voting on it, responding — it
// calls from protocols/common, where the counter-sequenced protocols call the
// same.
package pbft

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Meta describes PBFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Pbft",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             3,
	TrustedAbstraction: "none",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "none",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// TrustPolicy injects trusted-component accesses into PBFT's send paths for
// the Figure 5 microbenchmark. The zero value is plain PBFT (bar [a]).
type TrustPolicy struct {
	// Primary makes the primary access its trusted counter before sending
	// a Preprepare (bars [b], [c]).
	Primary bool
	// PrimaryAllPhases extends the primary's accesses to its Prepare and
	// Commit sends (bar [d]).
	PrimaryAllPhases bool
	// Replicas makes every replica access its counter before sending a
	// Prepare (bars [e], [f]).
	Replicas bool
	// ReplicasAllPhases extends replica accesses to Commit sends (bar [g]).
	ReplicasAllPhases bool
}

// Protocol is one replica's PBFT instance.
type Protocol struct {
	common.Base

	Trust TrustPolicy

	preprepares map[types.SeqNum]*types.Preprepare
	prepares    *engine.QuorumSet
	commits     *engine.QuorumSet
	prepared    map[types.SeqNum]bool
	committed   map[types.SeqNum]bool
	// qcs records each prepared slot's prepare quorum. A view change reports
	// it as one encoded certificate, a compact record replacing the 2f+1
	// loose Prepares a PBFT prepared certificate classically carries.
	qcs common.QCs
}

// New constructs a PBFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		prepares:    engine.NewQuorumSet(),
		commits:     engine.NewQuorumSet(),
		prepared:    make(map[types.SeqNum]bool),
		committed:   make(map[types.SeqNum]bool),
		qcs:         make(common.QCs),
	}
	p.Cfg = cfg
	p.Quorum = cfg.VoteQuorum2f1()
	return p
}

// Init implements engine.Protocol.
func (p *Protocol) Init(env engine.Env) { p.InitBase(env, p, p.Respond) }

// OnMessage implements engine.Protocol.
func (p *Protocol) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		p.onPreprepare(from, msg)
	case *types.Prepare:
		p.onPrepare(from, msg)
	case *types.Commit:
		p.onCommit(from, msg)
	default:
		p.HandleShared(from, m)
	}
}

// touchTC performs a Figure 5 instrumentation access if the policy asks for
// one on this path.
func (p *Protocol) touchTC(enabled bool, d types.Digest) {
	if !enabled {
		return
	}
	if _, err := p.Env.Trusted().AppendF(0, d); err != nil {
		p.Env.Logf("pbft: instrumented AppendF failed: %v", err)
	}
}

// ProposeBatch implements common.Hooks: assign the next local sequence
// number and broadcast the proposal.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	p.LastProposed++
	p.touchTC(p.Trust.Primary, b.Digest)
	pp := &types.Preprepare{View: p.View, Seq: p.LastProposed, Batch: b}
	p.preprepares[pp.Seq] = pp
	p.Env.Broadcast(pp)
	p.Proposed(pp)
}

// Proposed implements common.Voter: the primary's Preprepare is its Prepare
// vote.
func (p *Protocol) Proposed(pp *types.Preprepare) {
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()})
}

// onPreprepare votes Prepare for the primary's first proposal per slot.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !common.WellFormed(pp) || p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return
	}
	if existing, ok := p.preprepares[pp.Seq]; ok {
		if existing.Batch.Digest != pp.Batch.Digest {
			// Equivocation detected: without trusted components this is
			// possible; the replica refuses the conflict and will view
			// change when progress stalls.
			p.Env.Logf("pbft: equivocating preprepare at seq %d", pp.Seq)
		}
		return
	}
	if pp.Seq <= p.Ckpt.StableSeq() || !p.Admit(pp) {
		return
	}
	p.preprepares[pp.Seq] = pp
	p.Vote(from, pp)
}

// Vote implements common.Voter: count the primary's proposal as its Prepare,
// then broadcast and count this replica's own.
func (p *Protocol) Vote(primary types.ReplicaID, pp *types.Preprepare) {
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
	p.touchTC(p.Trust.Replicas, pp.Batch.Digest)
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(prep)
	p.addPrepare(prep)
}

// onPrepare handles a Prepare vote.
func (p *Protocol) onPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from {
		return
	}
	p.addPrepare(m)
}

// addPrepare tallies Prepare votes; at 2f+1 the slot is prepared and the
// replica broadcasts Commit.
func (p *Protocol) addPrepare(m *types.Prepare) {
	n := p.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Quorum || p.prepared[m.Seq] {
		return
	}
	pp, ok := p.preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.prepared[m.Seq] = true
	p.QuorumReached(p.qcs, m.View, m.Seq, m.Digest, n)
	allPhases := p.Trust.ReplicasAllPhases || (p.IsPrimary() && p.Trust.PrimaryAllPhases)
	p.touchTC(allPhases, m.Digest)
	c := &types.Commit{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(c)
	p.addCommit(c)
}

// onCommit handles a Commit vote.
func (p *Protocol) onCommit(from types.ReplicaID, m *types.Commit) {
	if m.View != p.View || m.Replica != from {
		return
	}
	p.addCommit(m)
}

// addCommit tallies Commit votes; at 2f+1 the batch commits.
func (p *Protocol) addCommit(m *types.Commit) {
	n := p.commits.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Quorum || p.committed[m.Seq] {
		return
	}
	pp, ok := p.preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.committed[m.Seq] = true
	// Figure 5 all-phases instrumentation: third access at commit.
	allPhases := p.Trust.ReplicasAllPhases || (p.IsPrimary() && p.Trust.PrimaryAllPhases)
	p.touchTC(allPhases, m.Digest)
	p.Exec.Commit(m.Seq, pp.Batch)
	p.Batcher.Kick()
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks: PBFT view changes carry prepared
// certificates, each the Preprepare plus the aggregated quorum certificate
// assembled when the slot prepared.
func (p *Protocol) BuildViewChange(types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq && p.prepared[seq] {
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.EncodeQC(p.prepares, p.qcs, seq)})
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks: every report is a prepared
// certificate, whose quorum certificate must pass one VerifyQC at the 2f+1
// quorum; a bare Preprepare proves nothing here.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pr := range vc.Prepared {
		if pr == nil || !common.WellFormed(pr.Preprepare) || !p.ValidQC(pr) {
			return false
		}
	}
	return len(vc.Preprepares) == 0
}

// BuildNewView implements common.Hooks: re-propose the highest prepared
// certificate per slot, no-ops in gaps.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable, slots := common.CollectSlots(vcs, common.WellFormed)
	nv := &types.NewView{View: v, ViewChanges: vcs, Proposals: common.Repropose(v, stable, slots, nil)}
	p.LastProposed = stable + types.SeqNum(len(nv.Proposals))
	p.InstallVotes(p.preprepares, p, nv, stable)
	return nv
}

// ProcessNewView implements common.Hooks: recompute what the included view
// changes prove and check the primary re-proposed exactly those batches.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	for _, vc := range nv.ViewChanges {
		if !p.ValidateViewChange(vc) {
			return false
		}
	}
	stable, slots := common.CollectSlots(nv.ViewChanges, common.WellFormed)
	for _, pp := range nv.Proposals {
		if !p.Admit(pp) {
			return false
		}
		if want, ok := slots[pp.Seq]; ok && want.Batch.Digest != pp.Batch.Digest {
			return false
		}
	}
	p.InstallVotes(p.preprepares, p, nv, stable)
	return true
}

// Forget implements common.Voter.
func (p *Protocol) Forget(seq types.SeqNum) {
	delete(p.prepared, seq)
	delete(p.committed, seq)
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	p.prepares.GC(seq)
	p.commits.GC(seq)
	common.DropThrough(p.preprepares, seq)
	common.DropThrough(p.prepared, seq)
	common.DropThrough(p.committed, seq)
	common.DropThrough(p.qcs, seq)
}
