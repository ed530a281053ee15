// Package pbftea implements PBFT-EA (Chun et al., "Attested Append-Only
// Memory"), the paper's three-phase trust-bft baseline on n = 2f+1 replicas.
// Every consensus message a replica sends is first appended to one of its
// trusted component's per-phase attested logs; receivers verify the
// attestation on every message. Quorums shrink to f+1, but the protocol is
// inherently sequential and every message costs a trusted-component access
// plus a signature verification — the combination the paper's Section 9.4
// shows erases the benefit of the smaller replication factor.
//
// The Parallel configuration bit yields OPBFT-EA, the paper's "Opbft-ea"
// variant (Section 9.2 baseline (vi)): consensus instances may overlap, with
// replicas using internally incremented counters so out-of-order appends
// succeed; throughput then bottlenecks on the trusted component instead.
//
// The three phases and their attested logs are this package. The preprepare
// log binds a batch to a slot the way the sequencing counter of
// common.Core does — position == sequence number, under the incarnation the
// view's primary Create()d — so the binding checks, the view-change
// collection and re-proposal, the vote install and the rest of what a slot
// log needs are the ones it calls from protocols/common.
package pbftea

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Per-phase trusted log identifiers.
const (
	logPreprepare = 0
	logPrepare    = 1
	logCommit     = 2
	logCheckpoint = 3
)

// Meta describes PBFT-EA for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Pbft-EA",
	Replicas:           func(f int) int { return 2*f + 1 },
	Phases:             3,
	TrustedAbstraction: "log",
	BFTLiveness:        false,
	OutOfOrder:         false,
	TrustedMemory:      "high",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's PBFT-EA (or OPBFT-EA) instance.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
	prepares    *engine.QuorumSet
	commits     *engine.QuorumSet
	prepared    map[types.SeqNum]bool
	committed   map[types.SeqNum]bool
	// curEpoch is the incarnation of the view primary's preprepare log.
	curEpoch uint32
	// qcs records each committed slot's commit quorum, encoded as a
	// certificate when a view change reports the slot.
	qcs common.QCs
}

// New constructs a PBFT-EA replica. cfg.Parallel=false is classic PBFT-EA;
// true is OPBFT-EA.
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
	p.Quorum = cfg.VoteQuorumF1()
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

// logAppend appends a message digest to the next slot of a trusted
// per-phase log. Attestations bind the digest to the slot; receivers check
// the digest binding and issuer. OPBFT-EA uses the internally incremented
// AppendF so appends from overlapping instances interleave freely;
// sequential PBFT-EA appends in consensus order by construction.
func (p *Protocol) logAppend(q uint32, d types.Digest) (*types.Attestation, error) {
	if p.Cfg.Parallel {
		return p.Env.Trusted().AppendF(q, d)
	}
	return p.Env.Trusted().Append(q, 0, d)
}

// verifyVoteAsync checks a vote's attestation — its issuer, log and digest,
// then the proof through VerifyAttestationAsync (PBFT-EA pays a verification
// on *every* message — the exact O(n)-serial pattern batched verification
// amortizes). tally must re-check decision state: on the simulator it runs
// as a later event.
func (p *Protocol) verifyVoteAsync(from types.ReplicaID, a *types.Attestation, q uint32,
	d types.Digest, tally func()) {
	if a == nil || a.Replica != from || a.Counter != q || a.Digest != d {
		return
	}
	p.Env.VerifyAttestationAsync(a, func(ok bool) {
		if ok {
			tally()
		}
	})
}

// bind appends a proposal to the preprepare log. The log advances one
// position per proposal from where Create seeded it, so position and
// sequence number stay aligned.
func (p *Protocol) bind(pp *types.Preprepare) bool {
	att, err := p.logAppend(logPreprepare, pp.Batch.Digest)
	if err != nil {
		p.Env.Logf("pbftea: preprepare log append failed: %v", err)
		return false
	}
	pp.Attest = att
	return true
}

// ProposeBatch implements common.Hooks.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	pp := &types.Preprepare{View: p.View, Seq: p.LastProposed + 1, Batch: b}
	if !p.bind(pp) {
		return
	}
	p.LastProposed = pp.Seq
	p.preprepares[pp.Seq] = pp
	p.Env.Broadcast(pp)
	p.Proposed(pp)
}

// Proposed implements common.Voter: the primary's logged Preprepare is its
// Prepare vote.
func (p *Protocol) Proposed(pp *types.Preprepare) {
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()})
}

// onPreprepare admits a proposal bound to its slot by the primary's
// preprepare log, then logs and broadcasts a Prepare.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !common.WellFormed(pp) || p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return
	}
	if _, dup := p.preprepares[pp.Seq]; dup || pp.Seq <= p.Ckpt.StableSeq() || !p.Admit(pp) {
		return
	}
	if !common.AttestBinds(pp, from, logPreprepare, p.curEpoch) || !p.Env.VerifyAttestation(pp.Attest) {
		return
	}
	p.preprepares[pp.Seq] = pp
	p.Vote(from, pp)
}

// Vote implements common.Voter: log this replica's Prepare, count the
// primary's proposal as its vote, then broadcast and count the Prepare.
func (p *Protocol) Vote(primary types.ReplicaID, pp *types.Preprepare) {
	myAtt, err := p.logAppend(logPrepare, pp.Batch.Digest)
	if err != nil {
		p.Env.Logf("pbftea: prepare log append failed: %v", err)
		return
	}
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest,
		Replica: p.Env.ID(), Attest: myAtt}
	p.Env.Broadcast(prep)
	p.addPrepare(prep)
}

// onPrepare verifies the attestation and tallies. Votes for slots that
// already prepared (or fell below the stable checkpoint) drop before any
// crypto: with f+1 sufficing, the f late votes per slot would cost a full
// verification each.
func (p *Protocol) onPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from {
		return
	}
	if p.prepared[m.Seq] || m.Seq <= p.Ckpt.StableSeq() {
		return
	}
	p.verifyVoteAsync(from, m.Attest, logPrepare, m.Digest, func() {
		if m.View == p.View && !p.prepared[m.Seq] {
			p.addPrepare(m)
		}
	})
}

// addPrepare marks prepared on f+1 votes and enters the Commit phase.
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
	myAtt, err := p.logAppend(logCommit, m.Digest)
	if err != nil {
		p.Env.Logf("pbftea: commit log append failed: %v", err)
		return
	}
	c := &types.Commit{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: p.Env.ID(), Attest: myAtt}
	p.Env.Broadcast(c)
	p.addCommit(c)
}

// onCommit verifies and tallies, with the same early-drop and asynchronous
// verification discipline as onPrepare.
func (p *Protocol) onCommit(from types.ReplicaID, m *types.Commit) {
	if m.View != p.View || m.Replica != from {
		return
	}
	if p.committed[m.Seq] || m.Seq <= p.Ckpt.StableSeq() {
		return
	}
	p.verifyVoteAsync(from, m.Attest, logCommit, m.Digest, func() {
		if m.View == p.View && !p.committed[m.Seq] {
			p.addCommit(m)
		}
	})
}

// addCommit commits on f+1 votes.
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
	p.QuorumReached(p.qcs, m.View, m.Seq, m.Digest, n)
	p.Exec.Commit(m.Seq, pp.Batch)
	p.Batcher.Kick()
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks: attested Preprepares above the
// stable checkpoint (each self-certifying), with the commit-quorum certificate
// of those that committed.
func (p *Protocol) BuildViewChange(types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq {
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.EncodeQC(p.commits, p.qcs, seq)})
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	return p.ValidAttestedReports(vc, logPreprepare, p.curEpoch)
}

// BuildNewView implements common.Hooks: a fresh incarnation of the preprepare
// log seeded at the quorum's stable point, one append per re-proposed slot.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable, slots := common.CollectSlots(vcs, func(pp *types.Preprepare) bool {
		return p.ReportBinds(pp, v, logPreprepare, p.curEpoch)
	})
	createAtt, err := p.Env.Trusted().Create(logPreprepare, uint64(stable))
	if err != nil {
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	p.curEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt,
		Proposals: common.Repropose(v, stable, slots, p.bind)}
	p.LastProposed = stable + types.SeqNum(len(nv.Proposals))
	p.InstallVotes(p.preprepares, p, nv, stable)
	return nv
}

// ProcessNewView implements common.Hooks: every proposal must be bound by the
// new primary's fresh log incarnation; only then is the incarnation adopted.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !p.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	primary := types.Primary(nv.View, p.Cfg.N)
	for _, pp := range nv.Proposals {
		if !p.Admit(pp) || !common.AttestBinds(pp, primary, logPreprepare, nv.CounterInit.Epoch) ||
			!p.Env.VerifyAttestation(pp.Attest) {
			return false
		}
	}
	p.curEpoch = nv.CounterInit.Epoch
	p.InstallVotes(p.preprepares, p, nv, types.SeqNum(nv.CounterInit.Value))
	return true
}

// Forget implements common.Voter.
func (p *Protocol) Forget(seq types.SeqNum) {
	delete(p.prepared, seq)
	delete(p.committed, seq)
}

// OnStableCheckpoint implements common.Hooks: besides vote GC, trusted logs
// truncate — checkpointing is what bounds the "high" trusted memory column
// of Figure 1.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	p.prepares.GC(seq)
	p.commits.GC(seq)
	common.DropThrough(p.preprepares, seq)
	common.DropThrough(p.prepared, seq)
	common.DropThrough(p.committed, seq)
	common.DropThrough(p.qcs, seq)
}

// CheckpointAttestation implements common.Hooks: the checkpoint carries an
// attestation from a dedicated checkpoint log so the per-phase logs keep
// their slot alignment.
func (p *Protocol) CheckpointAttestation(_ types.SeqNum, state types.Digest) *types.Attestation {
	att, err := p.Env.Trusted().Append(logCheckpoint, 0, state)
	if err != nil {
		return nil
	}
	return att
}
