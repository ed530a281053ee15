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
// paper cites as motivation for Flexi-ZZ's simpler design. Its pieces —
// collecting and re-proposing the quorum's reports, installing the new log
// with rollback — are the ones protocols/common gives every protocol, the
// answer to a client's commit certificate (Base.OnCommitCert, shared with
// MinZZ) among them; this package adds the signed proposal and the chained
// history.
package zyzzyva

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
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

// Protocol is one replica's Zyzzyva instance. The cumulative execution
// history digest h_k = H(h_{k-1}, d_k) its responses carry is Base.History.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
}

// New constructs a Zyzzyva replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{preprepares: make(map[types.SeqNum]*types.Preprepare)}
	p.Cfg = cfg
	p.Quorum = cfg.VoteQuorum2f1()
	p.Speculative = true
	p.CaptureSnapshots = cfg.CaptureSnapshots
	p.StableWindowAnchor = true
	return p
}

// Init implements engine.Protocol.
func (p *Protocol) Init(env engine.Env) { p.InitBase(env, p, p.respond) }

// OnMessage implements engine.Protocol.
func (p *Protocol) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		p.onPreprepare(from, msg)
	case *types.CommitCert:
		p.OnCommitCert(p.preprepares, msg)
	default:
		p.HandleShared(from, m)
	}
}

// sign is the primary's signature over a proposal's batch.
func (p *Protocol) sign(pp *types.Preprepare) bool {
	pp.Sig = p.Env.Crypto().Sign(pp.Batch.Digest[:])
	return true
}

// signed reports whether pp is well formed and bears the signature of the
// primary of the view it was proposed in.
func (p *Protocol) signed(pp *types.Preprepare) bool {
	return common.WellFormed(pp) && p.VerifySigMemo(types.Primary(pp.View, p.Cfg.N), pp.Batch.Digest[:], pp.Sig)
}

// ProposeBatch implements common.Hooks.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	p.LastProposed++
	pp := &types.Preprepare{View: p.View, Seq: p.LastProposed, Batch: b}
	p.sign(pp)
	p.preprepares[pp.Seq] = pp
	p.Env.Broadcast(pp)
	// Speculative execution at the primary too, decoupled from emission.
	p.Env.Defer(func() { p.Exec.Commit(pp.Seq, b) })
}

// onPreprepare executes speculatively; ordering is enforced by the executor.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !common.WellFormed(pp) || p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return
	}
	if existing, dup := p.preprepares[pp.Seq]; dup {
		if existing.Batch.Digest != pp.Batch.Digest {
			p.Env.Logf("zyzzyva: equivocating preprepare at seq %d", pp.Seq)
		}
		return
	}
	if pp.Seq <= p.Ckpt.StableSeq() || !p.Admit(pp) || !p.signed(pp) {
		return
	}
	p.preprepares[pp.Seq] = pp
	p.Exec.Commit(pp.Seq, pp.Batch)
	p.Batcher.Kick()
}

// respond advances the chained history digest — for a gap-filling no-op too —
// and sends the speculative response that carries it.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	p.History = crypto.HistoryDigest(p.History, batch.Digest)
	p.Respond(seq, batch, results)
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks.
func (p *Protocol) BuildViewChange(types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq {
			vc.Preprepares = append(vc.Preprepares, pp)
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks: each carried Preprepare must
// bear the signature of the primary of the view it is from.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pp := range common.SlotReports(vc) {
		if !p.signed(pp) {
			return false
		}
	}
	return true
}

// BuildNewView implements common.Hooks: re-propose the highest-view
// Preprepare per slot.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable, slots := common.CollectSlots(vcs, common.WellFormed)
	nv := &types.NewView{View: v, ViewChanges: vcs, Proposals: common.Repropose(v, stable, slots, p.sign)}
	p.LastProposed = stable + types.SeqNum(len(nv.Proposals))
	p.InstallSpeculative(p.preprepares, nv, stable)
	return nv
}

// ProcessNewView implements common.Hooks.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	for _, pp := range nv.Proposals {
		if !p.Admit(pp) || !p.signed(pp) || pp.View != nv.View {
			return false
		}
	}
	// Of what the quorum reports only its stable point matters here: the
	// signed proposals are taken as they are.
	stable, _ := common.CollectSlots(nv.ViewChanges, common.WellFormed)
	p.InstallSpeculative(p.preprepares, nv, stable)
	return true
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(seq types.SeqNum) {
	common.DropThrough(p.preprepares, seq)
}
