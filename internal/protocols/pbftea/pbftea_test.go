package pbftea

import (
	"fmt"
	"testing"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// cfg3 is the n=2f+1, f=1 configuration; sequential by default (PBFT-EA).
func cfg3() engine.Config {
	c := engine.DefaultConfig(3, 1)
	c.BatchSize = 1
	c.Parallel = false
	return c
}

// request builds a client request.
func request(reqNo uint64) *types.ClientRequest {
	return &types.ClientRequest{Client: 1, ReqNo: reqNo, Op: []byte(fmt.Sprintf("op-%d", reqNo))}
}

func TestThreePhaseAttestedCommit(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	for r := types.ReplicaID(0); r < 3; r++ {
		if got := c.Responses(r); len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("replica %d responses = %v", r, got)
		}
	}
	// Every replica logged in its trusted component: the primary appends to
	// the preprepare log, everyone to prepare and commit logs.
	for r := 0; r < 3; r++ {
		if got := c.Envs[r].TC.Accesses(); got == 0 {
			t.Fatalf("replica %d made no trusted log appends", r)
		}
		if got := c.Envs[r].TC.LogSize(); got == 0 {
			t.Fatalf("replica %d trusted log is empty; PBFT-EA keeps attested logs", r)
		}
	}
}

func TestUnattestedMessagesRejected(t *testing.T) {
	cfg := cfg3()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	b := ptest.Batch(request(1))
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b}) // no attestation
	if len(env.SentOfType(types.MsgPrepare)) != 0 {
		t.Fatal("prepared an unattested preprepare")
	}
	// Prepare without attestation is also dropped.
	p.OnMessage(2, &types.Prepare{View: 0, Seq: 1, Digest: b.Digest, Replica: 2})
	if len(env.Executed) != 0 {
		t.Fatal("vote counted from unattested prepare")
	}
}

func TestSequentialDefaultVsParallelVariant(t *testing.T) {
	// Classic PBFT-EA: one instance at a time.
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 1 {
		t.Fatalf("sequential PBFT-EA had %d instances in flight, want 1", got)
	}
	c.Flush()

	// OPBFT-EA: parallel instances.
	pcfg := cfg3()
	pcfg.Parallel = true
	cp := ptest.NewCluster(t, pcfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	cp.Paused = true
	cp.SubmitTo(0, request(1))
	cp.SubmitTo(0, request(2))
	if got := len(cp.Envs[0].SentOfType(types.MsgPreprepare)); got != 2 {
		t.Fatalf("OPBFT-EA proposed %d instances concurrently, want 2", got)
	}
	cp.Flush()
	for r := types.ReplicaID(0); r < 3; r++ {
		if got := len(cp.Envs[r].Executed); got != 2 {
			t.Fatalf("OPBFT-EA replica %d executed %d, want 2", r, got)
		}
	}
}

func TestCheckpointTruncation(t *testing.T) {
	cfg := cfg3()
	cfg.CheckpointEvery = 2
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	for i := uint64(1); i <= 4; i++ {
		c.SubmitTo(0, request(i))
	}
	p1 := c.Protos[1].(*Protocol)
	if p1.Ckpt.StableSeq() < 2 {
		t.Fatalf("stable checkpoint = %d, want >= 2", p1.Ckpt.StableSeq())
	}
	if _, ok := p1.preprepares[1]; ok {
		t.Fatal("slot state below the stable checkpoint not truncated")
	}
}

func TestViewChangeProgress(t *testing.T) {
	cfg := cfg3()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	c.Protos[2].(*Protocol).SuspectPrimary()
	c.Protos[1].(*Protocol).SuspectPrimary()
	if got := c.Protos[1].(*Protocol).View; got != 1 {
		t.Fatalf("view = %d, want 1", got)
	}
	c.SubmitTo(1, request(2))
	if got := c.Envs[2].Executed; len(got) != 2 {
		t.Fatalf("no progress after view change: %v", got)
	}
}
