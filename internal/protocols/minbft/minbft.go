// Package minbft implements MinBFT (Veronese et al., and the paper's
// Section 4.2): a two-phase trust-bft protocol on n = 2f+1 replicas where
// every replica binds each outgoing consensus message to its local trusted
// monotonic counter (USIG-style), and f+1 matching Prepares commit.
//
//	primary: Append(q, Δ) → Preprepare(⟨T⟩c, Δ, k, v, σ_p)
//	replica: verify σ_p; Append(q', Δ) → Prepare(Δ, k, v, σ_r); broadcast
//	replica: f+1 matching Prepares (the Preprepare counts as the primary's)
//	         → committed; execute in order; respond
//	client:  f+1 matching responses
//
// The trusted counters prevent equivocation, which is what makes the f+1
// quorum safe with only 2f+1 replicas — but, as the paper's analysis shows,
// it also makes the protocol sequential (each replica's counter must advance
// in consensus order, so instances cannot overlap: out-of-order Preprepares
// are buffered, and the primary proposes one instance at a time) and leaves
// clients unguaranteed to collect f+1 matching responses (Section 5).
package minbft

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Counter identifiers: one for the primary's proposal sequence, one for each
// replica's per-message USIG bindings.
const (
	seqCounter  = 0
	usigCounter = 1
)

// Meta describes MinBFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "MinBFT",
	Replicas:           func(f int) int { return 2*f + 1 },
	Phases:             2,
	TrustedAbstraction: "counter",
	BFTLiveness:        false,
	OutOfOrder:         false,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's MinBFT instance.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
	prepares    *engine.QuorumSet
	committed   map[types.SeqNum]bool
	// buffered holds out-of-order Preprepares: the replica's trusted
	// counter can only attest messages in consensus order, so gaps stall
	// processing (the paper's Section 7 sequentiality argument).
	buffered   map[types.SeqNum]*types.Preprepare
	nextAccept types.SeqNum
	curEpoch   uint32
	// qcs holds the encoded quorum certificate assembled when each slot
	// committed; carried as prepared-proof evidence in view changes and
	// GC'd at stable checkpoints.
	qcs map[types.SeqNum][]byte
}

// New constructs a MinBFT replica for cfg. Parallel is forced off: the
// protocol is inherently sequential.
func New(cfg engine.Config) *Protocol {
	cfg.Parallel = false
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		prepares:    engine.NewQuorumSet(),
		committed:   make(map[types.SeqNum]bool),
		buffered:    make(map[types.SeqNum]*types.Preprepare),
		nextAccept:  1,
		qcs:         make(map[types.SeqNum][]byte),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorumF1()
	p.CkptQuorum = cfg.VoteQuorumF1()
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

// ProposeBatch implements common.Hooks: bind the batch to the primary's
// trusted counter and broadcast.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	att, err := p.Env.Trusted().Append(seqCounter, 0, b.Digest)
	if err != nil {
		p.Env.Logf("minbft: Append failed: %v", err)
		return
	}
	seq := types.SeqNum(att.Value)
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b, Attest: att}
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	// The attested Preprepare is the primary's Prepare-equivalent vote.
	p.addPrepare(&types.Prepare{View: p.View, Seq: seq, Digest: b.Digest, Replica: p.Env.ID()})
}

// onPreprepare verifies and, if in order, accepts the proposal; out-of-order
// arrivals are buffered because the local trusted counter cannot attest a
// lower sequence number after a higher one.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return
	}
	a := pp.Attest
	if a == nil || a.Replica != from || a.Counter != seqCounter || a.Epoch != p.curEpoch ||
		types.SeqNum(a.Value) != pp.Seq || a.Digest != pp.Batch.Digest {
		return
	}
	if !p.Env.VerifyAttestation(a) {
		return
	}
	if pp.Seq < p.nextAccept {
		return // duplicate
	}
	if pp.Seq > p.nextAccept {
		p.buffered[pp.Seq] = pp
		return
	}
	p.acceptInOrder(pp)
	for {
		next, ok := p.buffered[p.nextAccept]
		if !ok {
			return
		}
		delete(p.buffered, p.nextAccept)
		p.acceptInOrder(next)
	}
}

// acceptInOrder attests our Prepare via the local trusted counter and votes.
func (p *Protocol) acceptInOrder(pp *types.Preprepare) {
	p.nextAccept = pp.Seq + 1
	p.preprepares[pp.Seq] = pp
	// Our own trusted component binds the Prepare (USIG): one TC access per
	// message, the cost the paper's Figure 5/8 analysis dwells on.
	myAtt, err := p.Env.Trusted().Append(usigCounter, 0, pp.Batch.Digest)
	if err != nil {
		p.Env.Logf("minbft: usig Append failed: %v", err)
		return
	}
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest,
		Replica: p.Env.ID(), Attest: myAtt}
	p.Env.Broadcast(prep)
	// The primary's Preprepare counts as its vote; add ours.
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: pp.Attest.Replica})
	p.addPrepare(prep)
}

// onPrepare verifies the sender's USIG attestation and tallies the vote.
// Votes for already-decided slots are dropped before any crypto — once f+1
// votes committed a slot, the remaining f votes still in flight would cost a
// full attestation verification each — and the remaining verifications run
// off the event goroutine in the verify pool.
func (p *Protocol) onPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from {
		return
	}
	if m.Attest == nil || m.Attest.Replica != from || m.Attest.Digest != m.Digest {
		return
	}
	if p.committed[m.Seq] || m.Seq <= p.Ckpt.StableSeq() {
		return
	}
	p.Env.VerifyAttestationAsync(m.Attest, func(ok bool) {
		// Re-check: events (commits, view changes) may have landed
		// between submission and completion.
		if ok && m.View == p.View && !p.committed[m.Seq] {
			p.addPrepare(m)
		}
	})
}

// addPrepare commits on f+1 matching votes.
func (p *Protocol) addPrepare(m *types.Prepare) {
	n := p.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Cfg.VoteQuorumF1() || p.committed[m.Seq] {
		return
	}
	pp, ok := p.preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.committed[m.Seq] = true
	qc := crypto.AssembleQC(m.View, m.Seq, m.Digest, types.ZeroDigest,
		p.Cfg.N, p.prepares.Voters(m.View, m.Seq, m.Digest))
	p.qcs[m.Seq] = qc.Encode()
	p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
	p.Exec.Commit(m.Seq, pp.Batch)
	p.Batcher.Kick() // sequential: the next instance may start
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

// BuildViewChange implements common.Hooks: attested Preprepares above the
// stable checkpoint (each self-certifying), plus the slot's aggregated
// quorum certificate where one was assembled — one compact record of the
// f+1 vote quorum instead of loose Prepare evidence.
func (p *Protocol) BuildViewChange(v types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq {
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.qcs[seq]})
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks. The attested Preprepare stays
// the transferable proof (memoized verification makes the re-check nearly
// free); any attached certificate must additionally decode and pass one
// VerifyQC against the f+1 vote quorum.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pr := range vc.Prepared {
		if pr.Preprepare == nil || pr.Preprepare.Attest == nil ||
			!p.Env.VerifyAttestation(pr.Preprepare.Attest) {
			return false
		}
		if len(pr.QC) != 0 {
			qc, err := crypto.DecodeQuorumCert(pr.QC)
			if err != nil || qc.Seq != pr.Preprepare.Seq ||
				qc.Digest != pr.Preprepare.Batch.Digest ||
				!p.Env.Crypto().VerifyQC(qc, p.Cfg.VoteQuorumF1()) {
				return false
			}
		}
	}
	return true
}

// BuildNewView implements common.Hooks: the incoming primary re-proposes
// every learned slot under a fresh counter incarnation. (Classic MinBFT
// continues the new primary's own counter; we use the Create primitive —
// which TrInc-class hardware provides — to keep sequence numbers stable
// across views, as Flexi protocols do. The failure-free path is unaffected.)
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable := types.SeqNum(0)
	slots := make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pr := range vc.Prepared {
			if pr.Preprepare != nil {
				slots[pr.Preprepare.Seq] = pr.Preprepare
			}
		}
	}
	maxSeq := stable
	for seq := range slots {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	createAtt, err := p.Env.Trusted().Create(seqCounter, uint64(stable))
	if err != nil {
		p.Env.Logf("minbft: Create failed: %v", err)
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	p.curEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt}
	for seq := stable + 1; seq <= maxSeq; seq++ {
		batch := common.NoopBatch()
		if pp, ok := slots[seq]; ok {
			batch = pp.Batch
		}
		att, err := p.Env.Trusted().Append(seqCounter, 0, batch.Digest)
		if err != nil {
			p.Env.Logf("minbft: re-propose Append failed: %v", err)
			return nv
		}
		nv.Proposals = append(nv.Proposals, &types.Preprepare{
			View: v, Seq: types.SeqNum(att.Value), Batch: batch, Attest: att,
		})
	}
	p.LastProposed = maxSeq
	p.installNewView(nv, stable, true)
	return nv
}

// ProcessNewView implements common.Hooks.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !p.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	primary := types.Primary(nv.View, p.Cfg.N)
	for _, pp := range nv.Proposals {
		a := pp.Attest
		if a == nil || a.Replica != primary || a.Epoch != nv.CounterInit.Epoch ||
			types.SeqNum(a.Value) != pp.Seq || a.Digest != pp.Batch.Digest ||
			!p.Env.VerifyAttestation(a) {
			return false
		}
	}
	p.curEpoch = nv.CounterInit.Epoch
	p.installNewView(nv, types.SeqNum(nv.CounterInit.Value), false)
	return true
}

// installNewView adopts re-proposed slots; backups vote for each.
func (p *Protocol) installNewView(nv *types.NewView, stable types.SeqNum, isPrimary bool) {
	p.buffered = make(map[types.SeqNum]*types.Preprepare)
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
		delete(p.committed, pp.Seq)
		if pp.Seq >= p.nextAccept {
			p.nextAccept = pp.Seq + 1
		}
	}
	for _, pp := range nv.Proposals {
		if pp.Seq <= p.Exec.LastExecuted() {
			continue
		}
		primaryVote := &types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest,
			Replica: types.Primary(nv.View, p.Cfg.N)}
		p.addPrepare(primaryVote)
		if !isPrimary {
			myAtt, err := p.Env.Trusted().Append(usigCounter, 0, pp.Batch.Digest)
			if err != nil {
				continue
			}
			prep := &types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest,
				Replica: p.Env.ID(), Attest: myAtt}
			p.Env.Broadcast(prep)
			p.addPrepare(prep)
		}
	}
	_ = stable
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	p.prepares.GC(seq)
	for s := range p.preprepares {
		if s <= seq {
			delete(p.preprepares, s)
		}
	}
	for s := range p.committed {
		if s <= seq {
			delete(p.committed, s)
		}
	}
	for s := range p.qcs {
		if s <= seq {
			delete(p.qcs, s)
		}
	}
}

// CheckpointAttestation implements common.Hooks: trust-bft checkpoints carry
// an attestation of the replica's current counter state bound to the
// checkpoint digest (one trusted access per checkpoint).
func (p *Protocol) CheckpointAttestation(_ types.SeqNum, state types.Digest) *types.Attestation {
	att, err := p.Env.Trusted().Append(usigCounter, 0, state)
	if err != nil {
		return nil
	}
	return att
}
