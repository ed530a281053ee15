package minbft

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

func TestHappyPathCommitsAndResponds(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	for r := types.ReplicaID(0); r < 3; r++ {
		got := c.Responses(r)
		if len(got) != 1 {
			t.Fatalf("replica %d sent %d responses, want 1", r, len(got))
		}
		if got[0].Seq != 1 {
			t.Fatalf("replica %d responded for seq %d, want 1", r, got[0].Seq)
		}
	}
	// All replicas executed the same thing.
	d0 := c.Envs[0].Store.StateDigest()
	for r := 1; r < 3; r++ {
		if c.Envs[r].Store.StateDigest() != d0 {
			t.Fatalf("replica %d state diverged", r)
		}
	}
}

func TestPrimaryAttestationRequired(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	batch := ptest.Batch(request(1))
	// Preprepare without attestation must be rejected by backups.
	c.Protos[1].OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: batch})
	if len(c.Envs[1].SentOfType(types.MsgPrepare)) != 0 {
		t.Fatal("backup prepared an unattested proposal")
	}
	// Forged attestation (self-made by the wrong component) rejected too.
	att, _ := c.Envs[1].TC.Append(0, 0, batch.Digest) // replica 1's TC, not the primary's
	c.Protos[1].OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: batch, Attest: att})
	if len(c.Envs[1].SentOfType(types.MsgPrepare)) != 0 {
		t.Fatal("backup prepared a proposal attested by the wrong component")
	}
}

func TestQuorumIsFPlusOne(t *testing.T) {
	cfg := engine.DefaultConfig(5, 2) // f=2: quorum 3
	cfg.BatchSize = 1
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)

	// Craft the primary's attested preprepare using a component that shares
	// the env's authority (replica 0's).
	primaryTC := ptest.NewSiblingTC(env, 0)
	batch := ptest.Batch(request(1))
	att, _ := primaryTC.Append(0, 0, batch.Digest)
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: batch, Attest: att})

	// After the preprepare: primary vote + own vote = 2 < 3; not executed.
	if len(env.Executed) != 0 {
		t.Fatal("executed below quorum")
	}
	// One more replica's prepare (with its own USIG attestation) commits.
	peerTC := ptest.NewSiblingTC(env, 2)
	peerAtt, _ := peerTC.Append(1, 0, batch.Digest)
	p.OnMessage(2, &types.Prepare{View: 0, Seq: 1, Digest: batch.Digest, Replica: 2, Attest: peerAtt})
	if len(env.Executed) != 1 {
		t.Fatalf("executed %d batches after f+1 votes, want 1", len(env.Executed))
	}
}

// TestOutOfOrderPreprepareBuffered reproduces the Section 7 sequentiality
// argument: a replica's trusted counter cannot attest a lower sequence after
// a higher one, so out-of-order proposals stall until the gap fills — the
// protocol cannot run consensus instances in parallel.
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

	// Deliver seq 2 first: buffered, no Prepare goes out, nothing executes.
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 2, Batch: b2, Attest: att2})
	if n := len(env.SentOfType(types.MsgPrepare)); n != 0 {
		t.Fatalf("replica prepared out-of-order proposal (%d prepares)", n)
	}
	// Gap fills: both process, in order.
	p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b1, Attest: att1})
	if n := len(env.SentOfType(types.MsgPrepare)); n != 2 {
		t.Fatalf("want 2 prepares after gap fill, got %d", n)
	}
}

func TestDuplicatePreprepareIgnored(t *testing.T) {
	c := ptest.NewCluster(t, cfg3(), func(cfg engine.Config) engine.Protocol { return New(cfg) })
	c.SubmitTo(0, request(1))
	before := len(c.Envs[1].SentOfType(types.MsgPrepare))
	// Replay the primary's preprepare.
	pp := c.Envs[0].SentOfType(types.MsgPreprepare)[0].Msg.(*types.Preprepare)
	c.Protos[1].OnMessage(0, pp)
	if after := len(c.Envs[1].SentOfType(types.MsgPrepare)); after != before {
		t.Fatalf("duplicate preprepare produced extra prepares (%d -> %d)", before, after)
	}
}

func TestViewChangePreservesCommittedRequest(t *testing.T) {
	cfg := cfg3()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return New(cfg) })
	// Commit request 1 everywhere.
	c.SubmitTo(0, request(1))
	d1 := c.Envs[1].Store.StateDigest()
	if d1.IsZero() {
		t.Fatal("setup: request 1 did not commit")
	}
	// Replicas 1 and 2 suspect the primary; f+1 = 2 view changes install
	// view 1 led by replica 1.
	p1 := c.Protos[1].(*Protocol)
	p2 := c.Protos[2].(*Protocol)
	p2.SuspectPrimary()
	p1.SuspectPrimary()
	if p1.View != 1 || p2.View != 1 {
		t.Fatalf("views after change: r1=%d r2=%d, want 1", p1.View, p2.View)
	}
	if got := types.Primary(p1.View, cfg.N); got != 1 {
		t.Fatalf("new primary = %d, want 1", got)
	}
	// Committed state survived: nothing rolled back, digests agree.
	if c.Envs[1].Store.StateDigest() != d1 || c.Envs[2].Store.StateDigest() != d1 {
		t.Fatal("view change corrupted committed state")
	}
	// The new primary serves requests in the new view.
	c.SubmitTo(1, request(2))
	if got := c.Envs[2].Store.StateDigest(); got == d1 || got.IsZero() {
		t.Fatal("new view does not make progress")
	}
}
