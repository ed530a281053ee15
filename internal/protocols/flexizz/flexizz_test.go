package flexizz

import (
	"fmt"
	"testing"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// cfg4 is the n=3f+1, f=1 configuration with per-request batches and a tiny
// checkpoint interval so rollback paths are reachable.
func cfg4() engine.Config {
	c := engine.DefaultConfig(4, 1)
	c.BatchSize = 1
	c.CheckpointEvery = 2
	return c
}

// request builds a client request carrying a real kvstore op.
func request(reqNo uint64) *types.ClientRequest {
	op := &kvstore.Op{Code: kvstore.OpUpdate, Key: reqNo % 100, Value: []byte(fmt.Sprintf("v%d", reqNo))}
	return &types.ClientRequest{Client: 1, ReqNo: reqNo, Op: op.Encode()}
}

func TestSinglePhaseSpeculativeExecution(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	// One linear phase: Preprepare only — no Prepare or Commit traffic.
	for r := 0; r < 4; r++ {
		if n := len(c.Envs[r].SentOfType(types.MsgPrepare)); n != 0 {
			t.Fatalf("replica %d sent %d Prepares; Flexi-ZZ is single-phase", r, n)
		}
		if n := len(c.Envs[r].SentOfType(types.MsgCommit)); n != 0 {
			t.Fatalf("replica %d sent %d Commits", r, n)
		}
	}
	// Everyone executed and responded speculatively.
	for r := types.ReplicaID(0); r < 4; r++ {
		got := c.Responses(r)
		if len(got) != 1 || !got[0].Speculative {
			t.Fatalf("replica %d responses = %+v, want 1 speculative", r, got)
		}
	}
	// Single trusted access, primary only.
	if got := c.Envs[0].TC.Accesses(); got != 1 {
		t.Fatalf("primary TC accesses = %d, want 1 per consensus", got)
	}
	for r := 1; r < 4; r++ {
		if got := c.Envs[r].TC.Accesses(); got != 0 {
			t.Fatalf("backup %d accessed its TC %d times, want 0", r, got)
		}
	}
}

func TestExecutionStaysInOrderUnderParallelProposals(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	for i := uint64(1); i <= 5; i++ {
		c.SubmitTo(0, request(i))
	}
	c.Flush()
	for r := types.ReplicaID(0); r < 4; r++ {
		if got := len(c.Envs[r].Executed); got != 5 {
			t.Fatalf("replica %d executed %d, want 5", r, got)
		}
		for i, seq := range c.Envs[r].Executed {
			if seq != types.SeqNum(i+1) {
				t.Fatalf("replica %d executed out of order: %v", r, c.Envs[r].Executed)
			}
		}
	}
}

func TestEquivocationImpossibleWithinEpoch(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)

	primaryTC := ptest.NewSiblingTC(env, 0)
	b1 := ptest.Batch(request(1))
	att1, _ := primaryTC.AppendF(0, b1.Digest)
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b1, Attest: att1})
	if len(env.Executed) != 1 {
		t.Fatal("first proposal did not execute")
	}
	// A conflicting proposal for seq 1 cannot carry a valid attestation:
	// the counter has moved on, so the attacker must forge — and fails.
	b2 := ptest.Batch(request(2))
	forged := *att1
	forged.Digest = b2.Digest
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b2, Attest: &forged})
	if len(env.Executed) != 1 {
		t.Fatal("replica executed a conflicting proposal at the same slot")
	}
}

func TestCheckpointTruncatesAndSnapshots(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	for i := uint64(1); i <= 4; i++ {
		c.SubmitTo(0, request(i))
	}
	// CheckpointEvery=2: after 4 slots, the stable checkpoint is at least 2
	// and per-slot state at or below it is gone.
	p1 := c.Protos[1].(*Protocol)
	if p1.Ckpt.StableSeq() < 2 {
		t.Fatalf("stable checkpoint = %d, want >= 2", p1.Ckpt.StableSeq())
	}
	if _, ok := p1.Preprepares[1]; ok {
		t.Fatal("slot 1 state not truncated after stable checkpoint")
	}
}

func TestViewChangeRollsBackConflictingSpeculation(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })

	// Commit slots 1-2 everywhere (stable checkpoint at 2).
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	base := c.Envs[3].Store.StateDigest()

	// The primary now equivocates per-destination: replica 3 alone receives
	// slot 3 = Talt (the primary crafts it after "rolling back" — modeled
	// here by sending a conflicting attested proposal only to 3 from a
	// rolled-back component), while 1 and 2 receive T.
	c.Paused = true
	snapshot := c.Envs[0].TC.Snapshot()
	p0 := c.Protos[0].(*Protocol)
	bT := ptest.Batch(request(3))
	attT, _ := c.Envs[0].TC.AppendF(0, bT.Digest)
	ppT := &types.Preprepare{View: 0, Seq: 3, Batch: bT, Attest: attT}
	_ = p0
	if err := c.Envs[0].TC.Restore(snapshot); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	bAlt := ptest.Batch(request(999))
	attAlt, _ := c.Envs[0].TC.AppendF(0, bAlt.Digest)
	ppAlt := &types.Preprepare{View: 0, Seq: 3, Batch: bAlt, Attest: attAlt}
	c.Paused = false
	c.Protos[1].OnMessage(0, ppT)
	c.Protos[2].OnMessage(0, ppT)
	c.Protos[3].OnMessage(0, ppAlt)

	// Replica 3 speculatively executed the equivocated slot 3.
	if c.Envs[3].Store.StateDigest() == base {
		t.Fatal("setup: replica 3 did not speculate on the conflicting proposal")
	}

	// View change: 1 and 2 suspect; 1 becomes primary of view 1 and
	// re-proposes slot 3 = T. Replica 3 must roll back its speculation and
	// converge on T.
	c.Protos[2].(*Protocol).SuspectPrimary()
	c.Protos[1].(*Protocol).SuspectPrimary()

	d1, d3 := c.Envs[1].Store.StateDigest(), c.Envs[3].Store.StateDigest()
	if d1 != d3 {
		t.Fatalf("replica 3 did not converge after rollback: r1=%v r3=%v", d1, d3)
	}
	if len(c.Envs[3].LogLines) == 0 {
		t.Log("note: no rollback log line; replica may have converged without rollback")
	}
}

func TestSequentialAblationWaitsForAcks(t *testing.T) {
	cfg := cfg4()
	cfg.Parallel = false // oFlexi-ZZ
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 1 {
		t.Fatalf("sequential primary had %d instances in flight, want 1", got)
	}
	c.Flush() // acks arrive, gate reopens
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 2 {
		t.Fatalf("instance 2 not proposed after acks (got %d)", got)
	}
}
