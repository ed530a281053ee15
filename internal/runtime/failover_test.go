package runtime

import (
	"context"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/types"
)

// TestReplicaProbeAndRestart exercises the per-replica health controls: a
// fresh cluster probes all-up at view 0; a stopped replica probes down; a
// restarted replica rejoins under its identity (and the cluster keeps
// committing throughout — the restarted backup's empty state is outside
// the reply quorum).
func TestReplicaProbeAndRestart(t *testing.T) {
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 1
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:      ecfg,
		NewProtocol: func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:     2,
		Clients:     []types.ClientID{1},
		Records:     1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	client := cl.NewClient(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, p := range cl.Probe() {
		if !p.Up || p.Status.View != 0 || p.Status.Primary != 0 || p.Status.InViewChange {
			t.Fatalf("fresh probe %+v", p)
		}
	}
	op := &kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("v")}
	if _, err := client.Submit(ctx, op.Encode()); err != nil {
		t.Fatal(err)
	}
	// The reply quorum may complete before the primary's own execution
	// event lands; poll the progress probe briefly.
	progressDeadline := time.Now().Add(5 * time.Second)
	for {
		st, up := cl.ReplicaStatus(0)
		if up && st.LastExecuted > 0 {
			break
		}
		if time.Now().After(progressDeadline) {
			t.Fatalf("primary progress probe never advanced: %+v up=%v", st, up)
		}
		time.Sleep(time.Millisecond)
	}

	cl.StopReplica(3) // a backup
	if _, up := cl.ReplicaStatus(3); up {
		t.Fatal("stopped replica still probes up")
	}
	cl.RestartReplica(3)
	if cl.Nodes[3].Stopped() {
		t.Fatal("restarted replica reports stopped")
	}
	if _, up := cl.ReplicaStatus(3); !up {
		t.Fatal("restarted replica does not probe up")
	}
	// Restarting a running replica is a no-op.
	n3 := cl.Nodes[3]
	cl.RestartReplica(3)
	if cl.Nodes[3] != n3 {
		t.Fatal("restart of a running replica replaced the node")
	}
	// The cluster keeps committing with the restarted backup attached.
	if _, err := client.Submit(ctx, op.Encode()); err != nil {
		t.Fatal(err)
	}

	// Probes race against restarts safely (the health monitor samples
	// concurrently with an operator's RestartReplica; -race covers this).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			cl.Probe()
		}
	}()
	for i := 0; i < 10; i++ {
		cl.StopReplica(3)
		cl.RestartReplica(3)
	}
	<-done
}

// TestPrimaryFailoverUnderRealRuntime kills the primary of a live cluster
// and verifies the client rides through the view change — the real-time
// (goroutines, wall-clock timers, Ed25519) counterpart of the simulator's
// view-change tests. The first request after the crash costs the first resend
// (ClientRetry/8 = 125 ms at the default) plus ViewChangeTimeout (200 ms
// here): the backups re-route it to the new primary themselves, so it must
// land well inside one ClientRetry, not at the client's second or third
// resend.
func TestPrimaryFailoverUnderRealRuntime(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(cfg engine.Config) engine.Protocol
	}{
		{"flexibft", func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) }},
		{"flexizz", func(cfg engine.Config) engine.Protocol { return flexizz.New(cfg) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ecfg := engine.DefaultConfig(4, 1)
			ecfg.BatchSize = 1
			ecfg.ViewChangeTimeout = 200 * time.Millisecond
			replies := 2
			if tc.name == "flexizz" {
				replies = 3
			}
			cl, err := NewCluster(ClusterConfig{
				N: 4, F: 1,
				Engine:      ecfg,
				NewProtocol: tc.mk,
				Replies:     replies,
				Clients:     []types.ClientID{1},
				Records:     1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			client := cl.NewClient(1)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			submit := func(i uint64) {
				t.Helper()
				op := &kvstore.Op{Code: kvstore.OpUpdate, Key: i % 10, Value: []byte("v")}
				if _, err := client.Submit(ctx, op.Encode()); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			for i := uint64(0); i < 5; i++ {
				submit(i)
			}
			cl.Nodes[0].Stop() // kill the primary
			crashed := time.Now()
			submit(5)
			if took := time.Since(crashed); took >= time.Second {
				t.Fatalf("first request after the crash took %v, want under ClientRetry (1s)", took)
			}
			for i := uint64(6); i < 10; i++ {
				submit(i)
			}
			// Survivors converge.
			deadline := time.Now().Add(5 * time.Second)
			for {
				d1, _ := cl.Nodes[1].DigestSnapshot()
				d2, _ := cl.Nodes[2].DigestSnapshot()
				d3, _ := cl.Nodes[3].DigestSnapshot()
				if d1 == d2 && d1 == d3 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("survivors never converged after failover")
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
