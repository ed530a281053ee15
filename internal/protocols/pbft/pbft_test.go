package pbft

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

func TestThreePhaseCommit(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	for r := types.ReplicaID(0); r < 4; r++ {
		if got := c.Responses(r); len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("replica %d responses = %v", r, got)
		}
		// All three phases ran: backups sent Prepare and Commit.
		if r != 0 && len(c.Envs[r].SentOfType(types.MsgPrepare)) == 0 {
			t.Fatalf("replica %d sent no Prepare", r)
		}
		if len(c.Envs[r].SentOfType(types.MsgCommit)) == 0 {
			t.Fatalf("replica %d sent no Commit", r)
		}
	}
	// PBFT uses no trusted components.
	for r := 0; r < 4; r++ {
		if got := c.Envs[r].TC.Accesses(); got != 0 {
			t.Fatalf("replica %d accessed a trusted component %d times", r, got)
		}
	}
}

func TestCommitNeedsPreparedSlot(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	d := types.Digest{1}
	// Commits without a preprepare/prepared slot never execute.
	for r := types.ReplicaID(0); r < 4; r++ {
		p.OnMessage(r, &types.Commit{View: 0, Seq: 1, Digest: d, Replica: r})
	}
	if len(env.Executed) != 0 {
		t.Fatal("executed from commits alone without a prepared proposal")
	}
}

func TestEquivocationDetectedAndFirstProposalKept(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)
	b1 := ptest.Batch(request(1))
	b2 := ptest.Batch(request(2))
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b1})
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b2}) // equivocation
	prepares := env.SentOfType(types.MsgPrepare)
	if len(prepares) != 1 {
		t.Fatalf("sent %d prepares, want 1 (first proposal only)", len(prepares))
	}
	if got := prepares[0].Msg.(*types.Prepare).Digest; got != b1.Digest {
		t.Fatalf("prepared digest %v, want the first proposal's %v", got, b1.Digest)
	}
}

func TestParallelInstances(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.Paused = true
	for i := uint64(1); i <= 4; i++ {
		c.SubmitTo(0, request(i))
	}
	// All four proposed concurrently (parallel consensus).
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 4 {
		t.Fatalf("primary proposed %d instances while blocked, want 4", got)
	}
	c.Flush()
	for r := types.ReplicaID(0); r < 4; r++ {
		if got := len(c.Envs[r].Executed); got != 4 {
			t.Fatalf("replica %d executed %d, want 4", r, got)
		}
	}
}

func TestTrustPolicyInstrumentationTouchesCounter(t *testing.T) {
	cfg := cfg4()
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol {
		p := New(cfg)
		p.Trust = TrustPolicy{Primary: true, PrimaryAllPhases: true}
		return p
	})
	c.SubmitTo(0, request(1))
	// Figure 5 bar [d]: the primary touches the counter in all three phases.
	if got := c.Envs[0].TC.Accesses(); got != 3 {
		t.Fatalf("primary TC accesses = %d, want 3 (preprepare+prepare+commit)", got)
	}
	if got := c.Envs[1].TC.Accesses(); got != 0 {
		t.Fatalf("backup TC accesses = %d, want 0 under primary-only policy", got)
	}
}

func TestViewChangeCarriesPreparedCertificates(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	d := c.Envs[2].Store.StateDigest()

	for _, r := range []int{3, 2} {
		c.Protos[r].(*Protocol).SuspectPrimary()
	}
	p1 := c.Protos[1].(*Protocol)
	if p1.View != 1 {
		t.Fatalf("view = %d, want 1", p1.View)
	}
	// Committed request survived and the new view makes progress.
	c.SubmitTo(1, request(2))
	for _, r := range []int{1, 2, 3} {
		got := c.Envs[r].Executed
		if len(got) != 2 {
			t.Fatalf("replica %d executed %v, want two slots", r, got)
		}
	}
	if c.Envs[2].Store.StateDigest() == d {
		t.Fatal("no new execution after view change")
	}
}

// TestPreparedSlotCommitsWithOldPrimaryDown: the primary dies after its
// proposal prepared at the backups but before any Commit arrived. View 1
// re-proposes the slot, and with only the three survivors voting it commits
// only if the new primary counts its own re-proposal as its Prepare.
func TestPreparedSlotCommitsWithOldPrimaryDown(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	backups := []types.ReplicaID{1, 2, 3}
	// Nothing a backup sends arrives: the Prepares are handed over below, the
	// Commits they trigger are lost.
	for _, a := range backups {
		for b := types.ReplicaID(0); b < 4; b++ {
			c.Sever(a, b)
		}
	}
	req := request(1)
	c.SubmitTo(0, req)
	pp := c.Envs[0].SentOfType(types.MsgPreprepare)[0].Msg.(*types.Preprepare)
	for _, a := range backups {
		for _, b := range backups {
			if a != b {
				c.Protos[a].OnMessage(b, &types.Prepare{View: 0, Seq: 1, Digest: pp.Batch.Digest, Replica: b})
			}
		}
	}
	for _, r := range backups {
		if len(c.Envs[r].Executed) != 0 {
			t.Fatalf("replica %d executed before any Commit arrived", r)
		}
	}
	// The primary is gone, the backups can talk again and vote it out.
	clear(c.Cut)
	for r := types.ReplicaID(0); r < 4; r++ {
		c.Sever(0, r)
		c.Sever(r, 0)
	}
	c.Paused = true
	c.Protos[3].(*Protocol).SuspectPrimary()
	c.Protos[2].(*Protocol).SuspectPrimary()
	c.Flush()
	for _, r := range backups {
		if got := c.Envs[r].Requests; len(got) != 1 || got[0] != req.Key() {
			t.Fatalf("replica %d executed %v in view %d, want the prepared request once",
				r, got, c.Protos[r].(*Protocol).View)
		}
	}
}
