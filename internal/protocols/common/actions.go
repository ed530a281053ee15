package common

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/types"
)

// The two things a counter-sequenced protocol does with a bound slot, each
// written once: vote on it (TwoPhase: MinBFT, Flexi-BFT) or execute it
// speculatively (Speculation: MinZZ, Flexi-ZZ). A protocol embeds one by
// value next to its Core and attaches the two at construction.

// TwoPhase is the voting action: a certified slot is voted for with a Prepare
// (the primary's Preprepare doubles as its vote), commits on a quorum of
// matching votes and leaves a quorum certificate behind, which its
// view-change report carries; an installed NewView is re-voted. When every
// replica attests, a vote carries the voter's USIG attestation and is counted
// only once that verifies.
type TwoPhase struct {
	c         *Core
	prepares  *engine.QuorumSet
	committed map[types.SeqNum]bool
	// qcs records what each slot committed, until the next stable checkpoint;
	// its certificate is encoded when a report carries it.
	qcs QCs
}

// Attach binds the action to the core it decides slots for.
func (t *TwoPhase) Attach(c *Core) {
	t.c = c
	t.prepares = engine.NewQuorumSet()
	t.committed = make(map[types.SeqNum]bool)
	t.qcs = make(QCs)
}

// Proposed implements SlotAction and Voter: the primary's proposal is its
// vote.
func (t *TwoPhase) Proposed(pp *types.Preprepare) {
	t.tally(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: t.c.Env.ID()})
}

// Certified implements SlotAction: vote for the slot.
func (t *TwoPhase) Certified(pp *types.Preprepare, usig *types.Attestation) {
	t.vote(t.c.PrimaryID(), pp, usig)
}

// Vote implements Voter: a re-proposed slot is voted for like a fresh one,
// with an attestation of its own.
func (t *TwoPhase) Vote(primary types.ReplicaID, pp *types.Preprepare) {
	if usig, ok := t.c.usig(pp.Batch.Digest); ok {
		t.vote(primary, pp, usig)
	}
}

// vote counts the primary's proposal as its vote, then adds and broadcasts
// this replica's own.
func (t *TwoPhase) vote(primary types.ReplicaID, pp *types.Preprepare, usig *types.Attestation) {
	t.tally(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: t.c.Env.ID(), Attest: usig}
	t.c.Env.Broadcast(prep)
	t.tally(prep)
}

// OnPrepare implements SlotAction: a backup's vote. An attested vote for a
// slot already decided is dropped before any crypto — once a quorum committed
// it, the votes still in flight would cost a verification each — and the rest
// verify off the event goroutine.
func (t *TwoPhase) OnPrepare(from types.ReplicaID, m *types.Prepare) {
	c := t.c
	if m.View != c.View || m.Replica != from {
		return
	}
	if !c.seq.EveryReplica {
		t.tally(m)
		return
	}
	a := m.Attest
	if a == nil || a.Replica != from || a.Digest != m.Digest || t.committed[m.Seq] || m.Seq <= c.Ckpt.StableSeq() {
		return
	}
	c.Env.VerifyAttestationAsync(a, func(ok bool) {
		// Re-check: commits or a view change may have landed in between.
		if ok && m.View == c.View && !t.committed[m.Seq] {
			t.tally(m)
		}
	})
}

// tally counts a vote and commits the slot on a quorum.
func (t *TwoPhase) tally(m *types.Prepare) {
	c := t.c
	n := t.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < c.Quorum || t.committed[m.Seq] {
		return
	}
	pp, ok := c.Preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	t.committed[m.Seq] = true
	c.QuorumReached(t.qcs, m.View, m.Seq, m.Digest, n)
	c.Exec.Commit(m.Seq, pp.Batch)
	c.Batcher.Kick() // sequential variants: the next instance may proceed
}

// Report implements SlotAction: a slot travels as a PreparedProof; no Prepare
// certificate is needed for a slot that merely prepared, but a committed
// slot's quorum certificate rides along.
func (t *TwoPhase) Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte) {
	vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: t.c.EncodeQC(t.prepares, t.qcs, pp.Seq), WC: wc})
}

// Install implements SlotAction.
func (t *TwoPhase) Install(nv *types.NewView, stable types.SeqNum, _ types.ReplicaID) {
	t.c.InstallVotes(t.c.Preprepares, t, nv, stable)
}

// Forget implements Voter.
func (t *TwoPhase) Forget(seq types.SeqNum) { delete(t.committed, seq) }

// GC implements SlotAction.
func (t *TwoPhase) GC(stable types.SeqNum) {
	t.prepares.GC(stable)
	DropThrough(t.committed, stable)
	DropThrough(t.qcs, stable)
}

// Speculation is the speculative action: a certified slot is executed at once
// — the primary cannot equivocate, so no second phase is needed — and a
// replica that executed a slot the new view drops or rebinds rolls back when
// it installs the NewView. A slot's view-change report is its Preprepare,
// bare where the attestation certifies it and with the covering certificate
// when windowed. With one instance in flight at a time (Cfg.Parallel false)
// the primary, which executes at propose time, gates the next instance on a
// quorum of acknowledgements instead.
type Speculation struct {
	c *Core
	// acks gates the sequential pipeline: the primary starts instance k+1
	// only once a quorum of replicas (itself included) has processed
	// instance k — the in-order trusted-counter pipeline's flow control,
	// which makes the protocol RTT-bound as the paper's Section 7 analysis
	// and throughput bound (batch / phases × RTT) describe.
	acks      *engine.QuorumSet
	lastAcked types.SeqNum
}

// Attach binds the action to the core it executes slots for.
func (s *Speculation) Attach(c *Core) {
	s.c, s.acks = c, engine.NewQuorumSet()
	c.Speculative = true
	c.CaptureSnapshots = c.Cfg.CaptureSnapshots
	c.StableWindowAnchor = true
	if !c.Cfg.Parallel {
		c.SeqReady = func() bool { return s.lastAcked >= c.LastProposed }
	}
}

// Proposed implements SlotAction: the primary executes speculatively like
// everyone else — windowed too, since it produced the chain it will attest —
// but on the execution pipeline stage, not inline with proposal emission.
func (s *Speculation) Proposed(pp *types.Preprepare) {
	s.c.Env.Defer(func() { s.c.Exec.Commit(pp.Seq, pp.Batch) })
}

// Certified implements SlotAction: acknowledge the instance to a sequential
// primary, then execute. The ack is pipeline flow control (the ordering stage
// passed; the primary may release instance k+1); execution and the response
// fan-out drain in a later pipeline stage. When every replica attests, the
// access the core just spent is what binds this replica's reply.
func (s *Speculation) Certified(pp *types.Preprepare, _ *types.Attestation) {
	c := s.c
	if !c.Cfg.Parallel {
		c.Env.Send(c.PrimaryID(), &types.Prepare{
			View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: c.Env.ID(),
		})
	}
	c.Exec.Commit(pp.Seq, pp.Batch)
	c.Batcher.Kick()
}

// OnPrepare implements SlotAction: it counts acknowledgements at a sequential
// primary; a quorum (the primary included) releases the next instance. Acks
// are flow control, not votes: safety never depends on them, so they carry no
// attestation and need no verification beyond channel authentication.
func (s *Speculation) OnPrepare(from types.ReplicaID, m *types.Prepare) {
	c := s.c
	if c.Cfg.Parallel || !c.IsPrimary() || m.View != c.View || m.Replica != from {
		return
	}
	n := s.acks.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n >= c.Quorum-1 && m.Seq > s.lastAcked {
		s.lastAcked = m.Seq
		s.acks.GC(m.Seq)
		c.Batcher.Kick()
	}
}

// Report implements SlotAction.
func (s *Speculation) Report(vc *types.ViewChange, pp *types.Preprepare, wc []byte) {
	if wc == nil {
		vc.Preprepares = append(vc.Preprepares, pp)
		return
	}
	vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, WC: wc})
}

// Install implements SlotAction.
func (s *Speculation) Install(nv *types.NewView, stable types.SeqNum, primary types.ReplicaID) {
	if primary == s.c.Env.ID() {
		// Re-proposed slots came from a view-change quorum; the sequential
		// pipeline starts unblocked in the new view.
		s.lastAcked = s.c.LastProposed
	}
	s.c.InstallSpeculative(s.c.Preprepares, nv, stable)
}

// GC implements SlotAction: acknowledgement tallies are dropped as each
// quorum completes, so nothing here is keyed by the stable checkpoint.
func (s *Speculation) GC(types.SeqNum) {}
