package flexibft

import (
	"fmt"
	"testing"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// cfg4 is the n=3f+1, f=1 configuration.
func cfg4() engine.Config {
	c := engine.DefaultConfig(4, 1)
	c.BatchSize = 1
	return c
}

// request builds a client request.
func request(reqNo uint64) *types.ClientRequest {
	return &types.ClientRequest{Client: 1, ReqNo: reqNo, Op: []byte(fmt.Sprintf("op-%d", reqNo))}
}

func TestHappyPathTwoPhases(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	for r := types.ReplicaID(0); r < 4; r++ {
		if got := c.Responses(r); len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("replica %d responses = %v", r, got)
		}
	}
	// Exactly one trusted access happened, at the primary.
	if got := c.Envs[0].TC.Accesses(); got != 1 {
		t.Fatalf("primary TC accesses = %d, want 1", got)
	}
	for r := 1; r < 4; r++ {
		if got := c.Envs[r].TC.Accesses(); got != 0 {
			t.Fatalf("backup %d TC accesses = %d, want 0 (G2: primary-only)", r, got)
		}
	}
	// No Commit phase exists (G: one less phase than PBFT).
	for r := 0; r < 4; r++ {
		if n := len(c.Envs[r].SentOfType(types.MsgCommit)); n != 0 {
			t.Fatalf("replica %d sent %d Commit messages; Flexi-BFT has no commit phase", r, n)
		}
	}
}

func TestParallelInstancesCommitOutOfOrderArrival(t *testing.T) {
	cfg := cfg4()
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	// Pause delivery, propose three batches, then release: backups see all
	// three concurrently (G1: parallel consensus).
	c.Paused = true
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	c.SubmitTo(0, request(3))
	c.Flush()
	for r := types.ReplicaID(0); r < 4; r++ {
		if got := len(c.Envs[r].Executed); got != 3 {
			t.Fatalf("replica %d executed %d batches, want 3", r, got)
		}
		for i, seq := range c.Envs[r].Executed {
			if seq != types.SeqNum(i+1) {
				t.Fatalf("replica %d executed out of order: %v", r, c.Envs[r].Executed)
			}
		}
	}
}

func TestCommitRequires2fPlus1Votes(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 3, cfg)
	p := New(cfg)
	p.Init(env)

	primaryTC := ptest.NewSiblingTC(env, 0)
	batch := ptest.Batch(request(1))
	att, _ := primaryTC.AppendF(0, batch.Digest)
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: batch, Attest: att})
	// Votes so far: primary + self = 2 < 3.
	if len(env.Executed) != 0 {
		t.Fatal("committed below the 2f+1 quorum")
	}
	p.OnMessage(1, &types.Prepare{View: 0, Seq: 1, Digest: batch.Digest, Replica: 1})
	if len(env.Executed) != 1 {
		t.Fatalf("executed %d after 2f+1 votes, want 1", len(env.Executed))
	}
	// Extra votes change nothing.
	p.OnMessage(2, &types.Prepare{View: 0, Seq: 1, Digest: batch.Digest, Replica: 2})
	if len(env.Executed) != 1 {
		t.Fatal("re-executed on redundant vote")
	}
}

func TestStaleEpochAttestationRejected(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	p.CurEpoch = 1 // a view change installed a fresh counter incarnation

	primaryTC := ptest.NewSiblingTC(env, 0)
	batch := ptest.Batch(request(1))
	att, _ := primaryTC.AppendF(0, batch.Digest) // epoch 0: pre-rollforward
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: batch, Attest: att})
	if len(env.SentOfType(types.MsgPrepare)) != 0 {
		t.Fatal("accepted an attestation from a stale counter epoch")
	}
}

func TestViewChangeReproposesWithFreshCounter(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	d := c.Envs[2].Store.StateDigest()

	// Two replicas (f+1) demand a view change; replica 1 joins on their
	// quorum-of-suspicion and, as the incoming primary, installs view 1.
	for _, r := range []int{3, 2} {
		c.Protos[r].(*Protocol).SuspectPrimary()
	}
	p1 := c.Protos[1].(*Protocol)
	if p1.View != 1 {
		t.Fatalf("replica 1 view = %d, want 1", p1.View)
	}
	// The new primary created a fresh counter incarnation.
	epoch, _, err := c.Envs[1].TC.Current(0)
	if err != nil || epoch != 1 {
		t.Fatalf("new primary counter epoch = %d (%v), want 1", epoch, err)
	}
	// Committed request survived.
	for _, r := range []int{1, 2, 3} {
		if c.Envs[r].Store.StateDigest() != d {
			t.Fatalf("replica %d lost committed state across the view change", r)
		}
	}
	// Progress in the new view, seq numbers continuing.
	c.SubmitTo(1, request(2))
	if got := c.Envs[2].Executed; len(got) != 2 || got[1] != 2 {
		t.Fatalf("executed sequence after view change = %v, want [1 2]", got)
	}
}

func TestSequentialVariantGatesOnExecution(t *testing.T) {
	cfg := cfg4()
	cfg.Parallel = false // oFlexi-BFT
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	c.SubmitTo(0, request(1))
	c.SubmitTo(0, request(2))
	// With delivery paused, instance 1 cannot commit, so instance 2 must
	// not have been proposed.
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 1 {
		t.Fatalf("sequential primary proposed %d instances concurrently", got)
	}
	c.Flush()
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 2 {
		t.Fatalf("second instance never proposed after first committed (got %d)", got)
	}
}
