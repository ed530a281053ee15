// Package minzz implements MinZZ (MinZyzzyva, Veronese et al.): the
// single-phase speculative trust-bft protocol on n = 2f+1 replicas the
// paper evaluates. The primary binds each batch to its trusted counter;
// replicas verify the attestation, bind their response with their own
// counter, execute speculatively in order and reply. The client's fast path
// needs matching responses from *all* n = 2f+1 replicas, so a single slow or
// crashed replica forces the commit-certificate slow path (the paper's
// Figure 7 degradation). Like MinBFT, consensus instances are inherently
// sequential.
package minzz

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Counter identifiers (primary sequence counter, per-replica USIG).
const (
	seqCounter  = 0
	usigCounter = 1
)

// Meta describes MinZZ for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "MinZZ",
	Replicas:           func(f int) int { return 2*f + 1 },
	Phases:             1,
	TrustedAbstraction: "counter",
	BFTLiveness:        false,
	OutOfOrder:         false,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return n }, // all 2f+1
	Speculative:        true,
}

// Protocol is one replica's MinZZ instance.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
	buffered    map[types.SeqNum]*types.Preprepare
	nextAccept  types.SeqNum
	curEpoch    uint32

	// acks gates the sequential pipeline: the primary starts instance k+1
	// only once f+1 replicas (including itself) have processed instance k.
	// This models the in-order trusted-counter pipeline's flow control and
	// makes the protocol RTT-bound, as the paper's Section 7 analysis and
	// throughput bound (batch / phases × RTT) describe.
	acks      *engine.QuorumSet
	lastAcked types.SeqNum
}

// New constructs a MinZZ replica for cfg (sequential by construction).
func New(cfg engine.Config) *Protocol {
	cfg.Parallel = false
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		buffered:    make(map[types.SeqNum]*types.Preprepare),
		nextAccept:  1,
		acks:        engine.NewQuorumSet(),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorumF1()
	p.CkptQuorum = cfg.VoteQuorumF1()
	p.CaptureSnapshots = cfg.CaptureSnapshots
	p.SeqReady = func() bool { return p.lastAcked >= p.LastProposed }
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
		p.onAck(from, msg)
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
	att, err := p.Env.Trusted().Append(seqCounter, 0, b.Digest)
	if err != nil {
		p.Env.Logf("minzz: Append failed: %v", err)
		return
	}
	seq := types.SeqNum(att.Value)
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b, Attest: att}
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	// Primary executes speculatively too, on the execution stage.
	p.Env.Defer(func() { p.Exec.Commit(seq, b) })
}

// onPreprepare verifies the attestation and executes speculatively, binding
// the response through the local trusted counter (one access per message).
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
		return
	}
	if pp.Seq > p.nextAccept {
		p.buffered[pp.Seq] = pp // local counter cannot attest out of order
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

// acceptInOrder binds the reply with the local counter, acknowledges the
// instance to the primary, then executes. The ack is pipeline flow control
// (the ordering stage passed; the primary may release instance k+1) and is
// what makes the protocol RTT-bound per instance, as the paper's Section 7
// throughput bound (batch / phases × RTT) describes. Execution and the
// response fan-out drain in a later pipeline stage.
func (p *Protocol) acceptInOrder(pp *types.Preprepare) {
	p.nextAccept = pp.Seq + 1
	p.preprepares[pp.Seq] = pp
	if _, err := p.Env.Trusted().Append(usigCounter, 0, pp.Batch.Digest); err != nil {
		p.Env.Logf("minzz: usig Append failed: %v", err)
		return
	}
	p.Env.Send(p.PrimaryID(), &types.Prepare{
		View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID(),
	})
	p.Exec.Commit(pp.Seq, pp.Batch)
	p.Batcher.Kick()
}

// onAck counts replica acknowledgements at the primary; f+1 (including the
// primary itself) release the next sequential instance. Acks are pipeline
// flow control, not votes: safety never depends on them, so they carry no
// attestation and need no verification beyond channel authentication.
func (p *Protocol) onAck(from types.ReplicaID, m *types.Prepare) {
	if !p.IsPrimary() || m.View != p.View || m.Replica != from {
		return
	}
	n := p.acks.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n >= p.Cfg.F && m.Seq > p.lastAcked { // f others + the primary = f+1
		p.lastAcked = m.Seq
		p.acks.GC(m.Seq)
		p.Batcher.Kick()
	}
}

// respond sends the speculative result.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return
	}
	p.RespondAndCache(&types.Response{
		Replica:     p.Env.ID(),
		View:        p.View,
		Seq:         seq,
		Digest:      batch.Digest,
		Results:     results,
		Speculative: true,
	})
}

// onCommitCert handles the client's slow-path certificate: a client that
// collected f+1 (but not all 2f+1) matching speculative responses proves the
// batch is committed; the replica acknowledges so the client can finish.
func (p *Protocol) onCommitCert(cc *types.CommitCert) {
	pp, ok := p.preprepares[cc.Seq]
	if !ok || pp.Batch.Digest != cc.Digest || cc.Seq > p.Exec.LastExecuted() {
		return
	}
	// A certificate that carries its response set is checked as one
	// aggregated QC; bare certificates keep the legacy path.
	if len(cc.Responses) > 0 {
		voters := make([]types.ReplicaID, 0, len(cc.Responses))
		for _, r := range cc.Responses {
			if r != nil && r.Digest == cc.Digest {
				voters = append(voters, r.Replica)
			}
		}
		qc := crypto.AssembleQC(cc.View, cc.Seq, cc.Digest, cc.History, p.Cfg.N, voters)
		if !p.Env.Crypto().VerifyQC(qc, p.Cfg.VoteQuorumF1()) {
			return
		}
	}
	p.Env.SendClient(cc.Client, &types.LocalCommit{
		Replica: p.Env.ID(), View: p.View, Seq: cc.Seq, Digest: cc.Digest, Client: cc.Client,
	})
}

// --- common.Hooks (view change mirrors MinBFT's, with speculative rollback
// as in Flexi-ZZ) ---

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

// ValidateViewChange implements common.Hooks.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	for _, pp := range vc.Preprepares {
		if pp == nil || pp.Attest == nil || !p.Env.VerifyAttestation(pp.Attest) {
			return false
		}
	}
	return true
}

// BuildNewView implements common.Hooks.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable := types.SeqNum(0)
	slots := make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pp := range vc.Preprepares {
			slots[pp.Seq] = pp
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
		p.Env.Logf("minzz: Create failed: %v", err)
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
			return nv
		}
		nv.Proposals = append(nv.Proposals, &types.Preprepare{
			View: v, Seq: types.SeqNum(att.Value), Batch: batch, Attest: att,
		})
	}
	p.LastProposed = maxSeq
	// Re-proposed slots came from a view-change quorum; the fresh pipeline
	// starts unblocked.
	p.lastAcked = maxSeq
	p.adoptNewView(nv, stable)
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
	p.adoptNewView(nv, types.SeqNum(nv.CounterInit.Value))
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
		for seq := resume + 1; seq <= stable; seq++ {
			if pp, ok := p.preprepares[seq]; ok {
				p.Exec.Commit(seq, pp.Batch)
			}
		}
	}
	p.buffered = make(map[types.SeqNum]*types.Preprepare)
	for seq := range p.preprepares {
		if seq > stable {
			delete(p.preprepares, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
		if pp.Seq >= p.nextAccept {
			p.nextAccept = pp.Seq + 1
		}
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
}

// CheckpointAttestation implements common.Hooks: trusted counter state bound
// to the checkpoint digest.
func (p *Protocol) CheckpointAttestation(_ types.SeqNum, state types.Digest) *types.Attestation {
	att, err := p.Env.Trusted().Append(usigCounter, 0, state)
	if err != nil {
		return nil
	}
	return att
}
