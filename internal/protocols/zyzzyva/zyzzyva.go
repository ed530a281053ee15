// Package zyzzyva implements Zyzzyva (Kotla et al.), the paper's speculative
// 3f+1 baseline: the primary orders requests and replicas execute them
// speculatively in one phase, replying with a cumulative history digest. The
// client's fast path needs matching responses from *all* 3f+1 replicas; with
// between 2f+1 and 3f matching responses it falls back to broadcasting a
// commit certificate and collecting 2f+1 LocalCommit acknowledgements.
// Consensus instances run in parallel (no trusted components anywhere).
//
// The view change implemented here is the simplified PBFT-style one (carry
// received Preprepares; roll back conflicting speculation) rather than
// Zyzzyva's original — whose subtle interaction between commit certificates
// and view changes harbored the safety bug [Abraham et al. 2017] that the
// paper cites as motivation for Flexi-ZZ's simpler design.
package zyzzyva

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Meta describes Zyzzyva for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Zyzzyva",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             1,
	TrustedAbstraction: "none",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "none",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return n }, // all 3f+1
	Speculative:        true,
}

// Protocol is one replica's Zyzzyva instance.
type Protocol struct {
	common.Base

	nextSeq     types.SeqNum
	preprepares map[types.SeqNum]*types.Preprepare
	// history is the cumulative execution history digest h_k = H(h_{k-1}, d_k).
	history types.Digest
	// qcs holds the encoded quorum certificate assembled from the first valid
	// commit certificate seen per slot: the 2f+1 matching speculative
	// responses summarized as a signer bitmap over the history digest.
	qcs map[types.SeqNum][]byte
}

// New constructs a Zyzzyva replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		qcs:         make(map[types.SeqNum][]byte),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorum2f1()
	p.CkptQuorum = cfg.VoteQuorum2f1()
	p.CaptureSnapshots = cfg.CaptureSnapshots
	p.StableWindowAnchor = true
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
	case *types.CommitCert:
		p.onCommitCert(msg)
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

// ProposeBatch implements common.Hooks.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	p.nextSeq++
	seq := p.nextSeq
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b}
	pp.Sig = p.Env.Crypto().Sign(b.Digest[:])
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	// Speculative execution at the primary too, decoupled from emission.
	p.Env.Defer(func() { p.Exec.Commit(seq, b) })
}

// onPreprepare executes speculatively; ordering is enforced by the executor.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return
	}
	if existing, dup := p.preprepares[pp.Seq]; dup {
		if existing.Batch.Digest != pp.Batch.Digest {
			p.Env.Logf("zyzzyva: equivocating preprepare at seq %d", pp.Seq)
		}
		return
	}
	if pp.Seq <= p.Ckpt.StableSeq() {
		return
	}
	if !p.VerifySigMemo(from, pp.Batch.Digest[:], pp.Sig) {
		return
	}
	p.preprepares[pp.Seq] = pp
	p.Exec.Commit(pp.Seq, pp.Batch)
	p.Batcher.Kick()
}

// respond sends the speculative response with the chained history digest.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	p.history = crypto.HistoryDigest(p.history, batch.Digest)
	if len(results) == 0 {
		return
	}
	p.RespondAndCache(&types.Response{
		Replica:     p.Env.ID(),
		View:        p.View,
		Seq:         seq,
		Digest:      batch.Digest,
		History:     p.history,
		Results:     results,
		Speculative: true,
	})
}

// onCommitCert acknowledges the client's 2f+1-matching-response certificate.
// The certificate's response set is checked as an aggregated quorum
// certificate (one structural/batched check) instead of 2f+1 individual
// response comparisons.
func (p *Protocol) onCommitCert(cc *types.CommitCert) {
	pp, ok := p.preprepares[cc.Seq]
	if !ok || pp.Batch.Digest != cc.Digest || cc.Seq > p.Exec.LastExecuted() {
		return
	}
	// Certificates that carry the response set are summarized and checked as
	// a QC; bare certificates (legacy clients, simulator) keep the original
	// trust-the-local-execution path.
	if len(cc.Responses) > 0 {
		if _, have := p.qcs[cc.Seq]; !have {
			voters := make([]types.ReplicaID, 0, len(cc.Responses))
			for _, r := range cc.Responses {
				if r != nil && r.Digest == cc.Digest && r.History == cc.History {
					voters = append(voters, r.Replica)
				}
			}
			qc := crypto.AssembleQC(cc.View, cc.Seq, cc.Digest, cc.History, p.Cfg.N, voters)
			if !p.Env.Crypto().VerifyQC(qc, p.Cfg.VoteQuorum2f1()) {
				return
			}
			p.qcs[cc.Seq] = qc.Encode()
			p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
		}
	}
	p.Env.SendClient(cc.Client, &types.LocalCommit{
		Replica: p.Env.ID(), View: p.View, Seq: cc.Seq, Digest: cc.Digest, Client: cc.Client,
	})
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks.
func (p *Protocol) BuildViewChange(v types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq {
			vc.Preprepares = append(vc.Preprepares, pp)
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks: each carried Preprepare must
// bear the old primary's signature.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pp := range vc.Preprepares {
		if pp == nil || pp.Batch == nil {
			return false
		}
		signer := types.Primary(pp.View, p.Cfg.N)
		if !p.VerifySigMemo(signer, pp.Batch.Digest[:], pp.Sig) {
			return false
		}
	}
	return true
}

// BuildNewView implements common.Hooks: re-propose the highest-view
// Preprepare per slot.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable := types.SeqNum(0)
	slots := make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pp := range vc.Preprepares {
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
		repp := &types.Preprepare{View: v, Seq: seq, Batch: batch}
		repp.Sig = p.Env.Crypto().Sign(batch.Digest[:])
		nv.Proposals = append(nv.Proposals, repp)
	}
	if maxSeq > p.nextSeq {
		p.nextSeq = maxSeq
	}
	p.LastProposed = p.nextSeq
	p.adoptNewView(nv, stable)
	return nv
}

// ProcessNewView implements common.Hooks.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	primary := types.Primary(nv.View, p.Cfg.N)
	for _, pp := range nv.Proposals {
		if !p.VerifySigMemo(primary, pp.Batch.Digest[:], pp.Sig) {
			return false
		}
	}
	stable := types.SeqNum(0)
	for _, vc := range nv.ViewChanges {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
	}
	p.adoptNewView(nv, stable)
	return true
}

// adoptNewView installs re-proposals, rolling back conflicting speculation.
func (p *Protocol) adoptNewView(nv *types.NewView, stable types.SeqNum) {
	assigned := make(map[types.SeqNum]types.Digest, len(nv.Proposals))
	for _, pp := range nv.Proposals {
		assigned[pp.Seq] = pp.Batch.Digest
	}
	rollback := false
	for seq := stable + 1; seq <= p.Exec.LastExecuted(); seq++ {
		if pp, ok := p.preprepares[seq]; ok {
			if d, ok2 := assigned[seq]; !ok2 || d != pp.Batch.Digest {
				rollback = true
				break
			}
		}
	}
	if rollback {
		resume := p.RollbackToStable()
		p.history = types.ZeroDigest // rebuilt as the prefix replays
		for seq := resume + 1; seq <= stable; seq++ {
			if pp, ok := p.preprepares[seq]; ok {
				p.Exec.Commit(seq, pp.Batch)
			}
		}
	}
	for seq := range p.preprepares {
		if seq > stable {
			delete(p.preprepares, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
		p.Exec.Commit(pp.Seq, pp.Batch)
	}
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	for s := range p.preprepares {
		if s <= seq {
			delete(p.preprepares, s)
		}
	}
	for s := range p.qcs {
		if s <= seq {
			delete(p.qcs, s)
		}
	}
}

// CheckpointAttestation implements common.Hooks.
func (p *Protocol) CheckpointAttestation(types.SeqNum, types.Digest) *types.Attestation { return nil }
