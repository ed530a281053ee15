package common_test

import (
	"fmt"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// The common package is exercised through a concrete protocol (Flexi-BFT):
// these tests target the shared request-routing and view-change edge cases
// that the per-protocol tests don't cover.

// cfg4 returns the n=4/f=1 config.
func cfg4() engine.Config {
	c := engine.DefaultConfig(4, 1)
	c.BatchSize = 1
	return c
}

// request builds a client request.
func request(client types.ClientID, reqNo uint64) *types.ClientRequest {
	return &types.ClientRequest{Client: client, ReqNo: reqNo, Op: []byte(fmt.Sprintf("%d-%d", client, reqNo))}
}

func TestBackupForwardsToPrimaryAndArmsTimer(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 2, cfg) // backup
	p := flexibft.New(cfg)
	p.Init(env)
	p.OnRequest(request(1, 1))
	fwds := env.SentOfType(types.MsgForward)
	if len(fwds) != 1 || fwds[0].To != 0 {
		t.Fatalf("forwards = %+v, want one to primary 0", fwds)
	}
	if _, armed := env.Timers[types.TimerID{Kind: types.TimerViewChange}]; !armed {
		t.Fatal("progress timer not armed after forwarding")
	}
	// Duplicate submission doesn't double-forward.
	p.OnRequest(request(1, 1))
	if got := len(env.SentOfType(types.MsgForward)); got != 1 {
		t.Fatalf("duplicate request forwarded again (%d forwards)", got)
	}
}

func TestHeldRequestsBoundedPerClient(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 2, cfg) // backup of views 0 and 1
	p := flexibft.New(cfg)
	p.Init(env)
	// Five requests of one client are in flight, one past the bound; the
	// last arrives twice.
	for _, reqNo := range []uint64{1, 2, 3, 4, 5, 5} {
		p.OnRequest(request(1, reqNo))
	}
	if got := len(env.SentOfType(types.MsgForward)); got != 5 {
		t.Fatalf("%d forwards to view 0's primary, want each request once", got)
	}
	env.ClearOutbox()
	p.EnterView(1)
	var rerouted []uint64
	for _, f := range env.SentOfType(types.MsgForward) {
		if f.To != 1 {
			t.Fatalf("re-routed to replica %d, want view 1's primary", f.To)
		}
		rerouted = append(rerouted, f.Msg.(*types.Forward).Request.ReqNo)
	}
	if fmt.Sprint(rerouted) != "[2 3 4 5]" {
		t.Fatalf("re-routed requests %v on entering view 1, want the newest four in order", rerouted)
	}
}

func TestResendAnsweredFromCache(t *testing.T) {
	c := ptest.NewCluster(t, cfg4(), func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) })
	c.SubmitTo(0, request(1, 1))
	before := len(c.Responses(2))
	// The client re-broadcasts; replica 2 must answer from its cache, not
	// re-run consensus.
	pp := len(c.Envs[0].SentOfType(types.MsgPreprepare))
	c.Protos[2].OnMessage(-1, &types.ClientResend{Request: request(1, 1)})
	if got := len(c.Responses(2)); got != before+1 {
		t.Fatalf("resend not answered from cache (%d -> %d responses)", before, got)
	}
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != pp {
		t.Fatal("resend of an executed request re-entered consensus")
	}
}

func TestStaleViewChangeIgnored(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := flexibft.New(cfg)
	p.Init(env)
	// A view change proposing view 0 (not above current) is ignored.
	p.OnMessage(2, &types.ViewChange{Replica: 2, NewView: 0})
	if p.InViewChange {
		t.Fatal("stale view change moved the replica into view-change mode")
	}
}

func TestFPlus1SuspicionsForceJoin(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 0
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) })
	// Replica 3 alone suspects: nobody joins (f=1 byzantine replica could
	// do this spuriously).
	c.Protos[3].(*flexibft.Protocol).SuspectPrimary()
	if c.Protos[2].(*flexibft.Protocol).InViewChange {
		t.Fatal("a single suspicion dragged an honest replica into a view change")
	}
	// A second suspicion reaches f+1: everyone joins and view 1 installs.
	c.Protos[2].(*flexibft.Protocol).SuspectPrimary()
	for r := 1; r < 4; r++ {
		if got := c.Protos[r].(*flexibft.Protocol).View; got != 1 {
			t.Fatalf("replica %d view = %d, want 1", r, got)
		}
	}
}

func TestNewViewFromWrongPrimaryRejected(t *testing.T) {
	cfg := cfg4()
	env := ptest.NewEnv(t, 2, cfg)
	p := flexibft.New(cfg)
	p.Init(env)
	// View 1's legitimate primary is replica 1; replica 3 sends a NewView.
	nv := &types.NewView{View: 1}
	p.OnMessage(3, nv)
	if p.View != 0 {
		t.Fatal("accepted a NewView from an impostor primary")
	}
}

func TestBatchFlushTimerOnlyActsAtPrimary(t *testing.T) {
	cfg := cfg4()
	cfg.BatchSize = 100 // never fills
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) })
	c.SubmitTo(0, request(1, 1))
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 0 {
		t.Fatal("partial batch proposed before flush timer")
	}
	c.Protos[0].OnTimer(types.TimerID{Kind: types.TimerBatch})
	if got := len(c.Envs[0].SentOfType(types.MsgPreprepare)); got != 1 {
		t.Fatalf("flush timer did not propose the partial batch (%d preprepares)", got)
	}
	// The same timer at a backup does nothing.
	c.Protos[1].OnTimer(types.TimerID{Kind: types.TimerBatch})
	if got := len(c.Envs[1].SentOfType(types.MsgPreprepare)); got != 0 {
		t.Fatal("backup proposed on a batch timer")
	}
}

func TestCheckpointQuorumRespectsConfiguredSize(t *testing.T) {
	cfg := cfg4()
	cfg.CheckpointEvery = 1
	c := ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) })
	c.SubmitTo(0, request(1, 1))
	// All four executed seq 1 and exchanged checkpoints; with a 2f+1
	// quorum the checkpoint must be stable everywhere.
	for r := 0; r < 4; r++ {
		p := c.Protos[r].(*flexibft.Protocol)
		if p.Ckpt.StableSeq() != 1 {
			t.Fatalf("replica %d stable checkpoint = %d, want 1", r, p.Ckpt.StableSeq())
		}
	}
	// Progress timer must have been cleared by execution everywhere.
	for r := 1; r < 4; r++ {
		if _, armed := c.Envs[r].Timers[types.TimerID{Kind: types.TimerViewChange}]; armed {
			t.Fatalf("replica %d still suspects the primary after progress", r)
		}
	}
}

func TestViewChangeTimeoutEscalates(t *testing.T) {
	cfg := cfg4()
	cfg.ViewChangeTimeout = 50 * time.Millisecond
	env := ptest.NewEnv(t, 2, cfg)
	p := flexibft.New(cfg)
	p.Init(env)
	p.StartViewChange(1)
	if !p.InViewChange {
		t.Fatal("StartViewChange did not enter view-change mode")
	}
	// The new view never installs; the escalation timer pushes to view 2.
	env.Advance(cfg.ViewChangeTimeout * 3)
	p.OnTimer(types.TimerID{Kind: types.TimerViewChange, View: 1})
	vcs := env.SentOfType(types.MsgViewChange)
	if len(vcs) < 2 {
		t.Fatalf("no escalation view change broadcast (%d VCs)", len(vcs))
	}
	last := vcs[len(vcs)-1].Msg.(*types.ViewChange)
	if last.NewView != 2 {
		t.Fatalf("escalated to view %d, want 2", last.NewView)
	}
}
