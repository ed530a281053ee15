package minzz

import (
	"fmt"
	"testing"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// cfg3 is the n=2f+1, f=1 configuration.
func cfg3() engine.Config {
	c := engine.DefaultConfig(3, 1)
	c.BatchSize = 1
	return c
}

// request builds a client request.
func request(reqNo uint64) *types.ClientRequest {
	return &types.ClientRequest{Client: 1, ReqNo: reqNo, Op: []byte(fmt.Sprintf("op-%d", reqNo))}
}

func TestSpeculativeExecutionOnPreprepare(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	for r := types.ReplicaID(0); r < 3; r++ {
		got := c.Responses(r)
		if len(got) != 1 || !got[0].Speculative {
			t.Fatalf("replica %d responses = %+v, want 1 speculative", r, got)
		}
	}
	// Every replica touched its trusted component (primary seq counter,
	// backups their USIG) — the per-message cost Figure 8 sweeps.
	for r := 0; r < 3; r++ {
		if got := c.Envs[r].TC.Accesses(); got == 0 {
			t.Fatalf("replica %d never accessed its trusted component", r)
		}
	}
}

func TestOutOfOrderPreprepareBuffered(t *testing.T) {
	cfg := cfg3()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	primaryTC := ptest.NewSiblingTC(env, 0)
	b1 := ptest.Batch(request(1))
	b2 := ptest.Batch(request(2))
	att1, _ := primaryTC.Append(0, 0, b1.Digest)
	att2, _ := primaryTC.Append(0, 0, b2.Digest)

	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 2, Batch: b2, Attest: att2})
	if len(env.Executed) != 0 {
		t.Fatal("executed out-of-order proposal")
	}
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b1, Attest: att1})
	if got := len(env.Executed); got != 2 {
		t.Fatalf("executed %d after gap fill, want 2", got)
	}
	if env.Executed[0] != 1 || env.Executed[1] != 2 {
		t.Fatalf("execution order %v, want [1 2]", env.Executed)
	}
}

func TestCommitCertAnsweredOnlyForExecutedMatchingSlot(t *testing.T) {
	cfg := cfg3()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	primaryTC := ptest.NewSiblingTC(env, 0)
	b1 := ptest.Batch(request(1))
	att1, _ := primaryTC.Append(0, 0, b1.Digest)
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b1, Attest: att1})

	// Matching cert: acknowledged.
	p.OnMessage(-1, &types.CommitCert{Client: 7, View: 0, Seq: 1, Digest: b1.Digest})
	acks := env.SentOfType(types.MsgLocalCommit)
	if len(acks) != 1 || acks[0].Client != 7 {
		t.Fatalf("local commits = %+v, want one to client 7", acks)
	}
	// Wrong digest: ignored.
	p.OnMessage(-1, &types.CommitCert{Client: 7, View: 0, Seq: 1, Digest: types.Digest{9}})
	if len(env.SentOfType(types.MsgLocalCommit)) != 1 {
		t.Fatal("acknowledged a cert with a mismatched digest")
	}
	// Unexecuted slot: ignored.
	p.OnMessage(-1, &types.CommitCert{Client: 7, View: 0, Seq: 5, Digest: b1.Digest})
	if len(env.SentOfType(types.MsgLocalCommit)) != 1 {
		t.Fatal("acknowledged a cert for an unexecuted slot")
	}
}

func TestSequentialPrimaryGatesOnAcks(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 1 {
		t.Fatalf("primary had %d instances in flight, want 1 (inherently sequential)", got)
	}
	c.Flush()
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 2 {
		t.Fatalf("instance 2 never released after acks (got %d)", got)
	}
}

func TestViewChangeKeepsExecutedPrefix(t *testing.T) {
	cfg := cfg3()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	d := c.Envs[1].Store.StateDigest()
	if d.IsZero() {
		t.Fatal("setup: nothing executed")
	}
	c.Protos[2].(*Protocol).SuspectPrimary()
	c.Protos[1].(*Protocol).SuspectPrimary()
	p1 := c.Protos[1].(*Protocol)
	if p1.View != 1 {
		t.Fatalf("view = %d, want 1", p1.View)
	}
	if c.Envs[1].Store.StateDigest() != d || c.Envs[2].Store.StateDigest() != d {
		t.Fatal("executed prefix lost across view change")
	}
	c.SubmitTo(1, request(2))
	if got := c.Envs[2].Executed; len(got) != 2 {
		t.Fatalf("no progress in view 1: executed %v", got)
	}
}
