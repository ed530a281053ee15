// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov), the paper's 3f+1 baseline: three phases (Preprepare, Prepare,
// Commit), 2f+1 vote quorums, fully parallel consensus instances, and no
// trusted components.
//
// For the paper's Figure 5 microbenchmark ("impact of trusted counter and
// signature attestations on Pbft"), the protocol optionally threads trusted
// component accesses into its send paths via TrustPolicy — bars [b]–[g] are
// this protocol with different policies and cost models.
package pbft

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
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

	nextSeq     types.SeqNum
	preprepares map[types.SeqNum]*types.Preprepare
	prepares    *engine.QuorumSet
	commits     *engine.QuorumSet
	prepared    map[types.SeqNum]bool
	committed   map[types.SeqNum]bool
	// qcs holds the encoded prepare-quorum certificate per prepared slot:
	// one compact record replacing the 2f+1 loose Prepares a PBFT prepared
	// certificate classically carries.
	qcs map[types.SeqNum][]byte
}

// New constructs a PBFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		prepares:    engine.NewQuorumSet(),
		commits:     engine.NewQuorumSet(),
		prepared:    make(map[types.SeqNum]bool),
		committed:   make(map[types.SeqNum]bool),
		qcs:         make(map[types.SeqNum][]byte),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorum2f1()
	p.CkptQuorum = cfg.VoteQuorum2f1()
	return p
}

// Init implements engine.Protocol.
func (p *Protocol) Init(env engine.Env) { p.InitBase(env, p.Cfg, p, p.respond) }

// OnRequest implements engine.Protocol.
func (p *Protocol) OnRequest(req *types.ClientRequest) { p.HandleRequest(req) }

// OnMessage implements engine.Protocol.
func (p *Protocol) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		p.onPreprepare(from, msg)
	case *types.Prepare:
		p.onPrepare(from, msg)
	case *types.Commit:
		p.onCommit(from, msg)
	case *types.Checkpoint:
		p.HandleCheckpoint(msg)
	case *types.ViewChange:
		p.HandleViewChange(msg)
	case *types.NewView:
		p.HandleNewView(from, msg)
	case *types.Forward:
		p.HandleForward(msg)
	case *types.ClientResend:
		p.HandleResend(msg.Request)
	}
}

// OnTimer implements engine.Protocol.
func (p *Protocol) OnTimer(id types.TimerID) { p.HandleBaseTimer(id) }

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
	p.nextSeq++
	seq := p.nextSeq
	p.LastProposed = seq
	p.touchTC(p.Trust.Primary, b.Digest)
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b}
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	// The primary's Preprepare is its Prepare vote.
	p.addPrepare(&types.Prepare{View: p.View, Seq: seq, Digest: b.Digest, Replica: p.Env.ID()}, true)
}

// onPreprepare votes Prepare for the primary's first proposal per slot.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
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
	if pp.Seq <= p.Ckpt.StableSeq() {
		return
	}
	p.preprepares[pp.Seq] = pp
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: from}, false)
	p.touchTC(p.Trust.Replicas, pp.Batch.Digest)
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(prep)
	p.addPrepare(prep, false)
}

// onPrepare handles a Prepare vote.
func (p *Protocol) onPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from {
		return
	}
	p.addPrepare(m, false)
}

// addPrepare tallies Prepare votes; at 2f+1 the slot is prepared and the
// replica broadcasts Commit.
func (p *Protocol) addPrepare(m *types.Prepare, isPrimarySelf bool) {
	n := p.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Cfg.VoteQuorum2f1() || p.prepared[m.Seq] {
		return
	}
	pp, ok := p.preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.prepared[m.Seq] = true
	qc := crypto.AssembleQC(m.View, m.Seq, m.Digest, types.ZeroDigest,
		p.Cfg.N, p.prepares.Voters(m.View, m.Seq, m.Digest))
	p.qcs[m.Seq] = qc.Encode()
	p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
	allPhases := p.Trust.ReplicasAllPhases || (p.IsPrimary() && p.Trust.PrimaryAllPhases)
	p.touchTC(allPhases, m.Digest)
	c := &types.Commit{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(c)
	p.addCommit(c)
	_ = isPrimarySelf
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
	if n < p.Cfg.VoteQuorum2f1() || p.committed[m.Seq] {
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

// respond sends the execution result.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return
	}
	p.RespondAndCache(&types.Response{
		Replica: p.Env.ID(),
		View:    p.View,
		Seq:     seq,
		Digest:  batch.Digest,
		Results: results,
	})
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks: PBFT view changes carry prepared
// certificates, each the Preprepare plus the aggregated quorum certificate
// assembled when the slot prepared.
func (p *Protocol) BuildViewChange(v types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq && p.prepared[seq] {
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.qcs[seq]})
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks: each prepared certificate must
// carry an aggregated certificate that passes one VerifyQC at the 2f+1
// quorum.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pr := range vc.Prepared {
		if pr.Preprepare == nil {
			return false
		}
		qc, err := crypto.DecodeQuorumCert(pr.QC)
		if err != nil || qc.Seq != pr.Preprepare.Seq ||
			qc.Digest != pr.Preprepare.Batch.Digest ||
			!p.Env.Crypto().VerifyQC(qc, p.Cfg.VoteQuorum2f1()) {
			return false
		}
	}
	return true
}

// BuildNewView implements common.Hooks: re-propose the highest prepared
// certificate per slot, no-ops in gaps.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable := types.SeqNum(0)
	slots := make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pr := range vc.Prepared {
			pp := pr.Preprepare
			if cur, ok := slots[pp.Seq]; !ok || pp.View > cur.View {
				slots[pp.Seq] = pp
			}
		}
	}
	maxSeq := stable
	for seq := range slots {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	nv := &types.NewView{View: v, ViewChanges: vcs}
	for seq := stable + 1; seq <= maxSeq; seq++ {
		batch := common.NoopBatch()
		if pp, ok := slots[seq]; ok {
			batch = pp.Batch
		}
		nv.Proposals = append(nv.Proposals, &types.Preprepare{View: v, Seq: seq, Batch: batch})
	}
	if maxSeq > p.nextSeq {
		p.nextSeq = maxSeq
	}
	p.LastProposed = p.nextSeq
	p.installProposals(nv, stable)
	// A re-proposal is the primary's Prepare vote, as a fresh proposal is:
	// with f replicas down the 2f backups alone are one short of the quorum.
	for _, pp := range nv.Proposals {
		p.addPrepare(&types.Prepare{View: v, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}, true)
	}
	return nv
}

// ProcessNewView implements common.Hooks.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	// Recompute the expected proposals from the included view changes and
	// check the primary proposed exactly those digests.
	expect := make(map[types.SeqNum]types.Digest)
	stable := types.SeqNum(0)
	for _, vc := range nv.ViewChanges {
		if !p.ValidateViewChange(vc) {
			return false
		}
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pr := range vc.Prepared {
			expect[pr.Preprepare.Seq] = pr.Preprepare.Batch.Digest
		}
	}
	for _, pp := range nv.Proposals {
		if want, ok := expect[pp.Seq]; ok && want != pp.Batch.Digest {
			return false
		}
	}
	p.installProposals(nv, stable)
	for _, pp := range nv.Proposals {
		if pp.Seq <= p.Exec.LastExecuted() {
			continue
		}
		p.addPrepare(&types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest,
			Replica: types.Primary(nv.View, p.Cfg.N)}, false)
		prep := &types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
		p.Env.Broadcast(prep)
		p.addPrepare(prep, false)
	}
	return true
}

// installProposals adopts the new view's slot assignments above stable, the
// quorum's highest stable checkpoint. A slot accepted in an old view that the
// quorum did not re-propose committed nowhere; kept, it would refuse the new
// view's proposal for its sequence number.
func (p *Protocol) installProposals(nv *types.NewView, stable types.SeqNum) {
	for seq := range p.preprepares {
		if seq > stable {
			delete(p.preprepares, seq)
			delete(p.prepared, seq)
			delete(p.committed, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
	}
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	p.prepares.GC(seq)
	p.commits.GC(seq)
	for s := range p.preprepares {
		if s <= seq {
			delete(p.preprepares, s)
			delete(p.prepared, s)
			delete(p.committed, s)
			delete(p.qcs, s)
		}
	}
}

// CheckpointAttestation implements common.Hooks: PBFT has no trusted
// components.
func (p *Protocol) CheckpointAttestation(types.SeqNum, types.Digest) *types.Attestation { return nil }
