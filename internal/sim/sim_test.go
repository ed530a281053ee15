package sim

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// testCluster builds a small flexibft cluster.
func testCluster(seed int64, mutate func(*Cluster)) *Cluster {
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 10
	wl := workload.DefaultConfig()
	wl.Records = 1000
	wl.Seed = seed
	c := NewCluster(Config{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		ClientRetry:    8 * time.Second,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        200,
		Workload:       wl,
		Seed:           seed,
	})
	if mutate != nil {
		mutate(c)
	}
	return c
}

// TestDeterminism: identical seeds give bit-identical results — the property
// that makes every experiment reproducible.
func TestDeterminism(t *testing.T) {
	a := testCluster(3, nil).Run(100*time.Millisecond, 300*time.Millisecond)
	b := testCluster(3, nil).Run(100*time.Millisecond, 300*time.Millisecond)
	if a != b {
		t.Fatalf("identical seeds diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	// Different seeds draw different workload operations, so the executed
	// histories must differ even when the message structure matches.
	c1, c2 := testCluster(3, nil), testCluster(4, nil)
	c1.Run(100*time.Millisecond, 300*time.Millisecond)
	c2.Run(100*time.Millisecond, 300*time.Millisecond)
	if c1.StateDigestOf(0) == c2.StateDigestOf(0) {
		t.Fatal("different seeds executed identical histories; workload randomness not wired")
	}
}

// TestReplicasConverge: after a loaded run, replicas executed the same
// history (consensus safety, end to end in the simulator). The closed loop
// never stops, so replicas are cut off a slot or two apart; safety means
// replicas at the same execution point hold identical digests and nobody
// has drifted far.
func TestReplicasConverge(t *testing.T) {
	c := testCluster(3, nil)
	c.Run(100*time.Millisecond, 400*time.Millisecond)
	c.RunUntil(c.Now() + 200*time.Millisecond)
	byProgress := make(map[types.SeqNum]types.Digest)
	var minExec, maxExec types.SeqNum
	for r := types.ReplicaID(0); r < 4; r++ {
		_, proto := c.Replica(r)
		exec := proto.(*flexibft.Protocol).Exec.LastExecuted()
		if exec == 0 {
			t.Fatalf("replica %d executed nothing", r)
		}
		d := c.StateDigestOf(r)
		if prev, ok := byProgress[exec]; ok && prev != d {
			t.Fatalf("replica %d executed %d slots with digest %v; a peer at the same point has %v",
				r, exec, d, prev)
		}
		byProgress[exec] = d
		if minExec == 0 || exec < minExec {
			minExec = exec
		}
		if exec > maxExec {
			maxExec = exec
		}
	}
	if maxExec-minExec > 10 {
		t.Fatalf("replicas drifted %d slots apart (%d..%d)", maxExec-minExec, minExec, maxExec)
	}
}

// TestPrimaryCrashTriggersViewChange: the cluster keeps serving clients
// after the primary fail-stops mid-run.
func TestPrimaryCrashTriggersViewChange(t *testing.T) {
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
			ecfg.BatchSize = 10
			ecfg.ViewChangeTimeout = 100 * time.Millisecond
			wl := workload.DefaultConfig()
			wl.Records = 1000
			c := NewCluster(Config{
				N: 4, F: 1,
				Engine:         ecfg,
				NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return tc.mk(cfg) },
				Replies:        2,
				ClientRetry:    2 * time.Second,
				TrustedProfile: trusted.ProfileSGXEnclave,
				Clients:        100,
				Workload:       wl,
				Seed:           9,
			})
			c.Crash(0, 500*time.Millisecond)
			// Measure only after the crash: completions inside the window
			// prove the view change installed a working new primary.
			res := c.Run(time.Second, 3*time.Second)
			if res.Completed == 0 {
				t.Fatalf("no completions after primary crash; view change failed")
			}
		})
	}
}

// TestMinBFTPrimaryCrashViewChange exercises the trust-bft view change under
// the simulator too.
func TestMinBFTPrimaryCrashViewChange(t *testing.T) {
	ecfg := engine.DefaultConfig(3, 1)
	ecfg.BatchSize = 10
	ecfg.ViewChangeTimeout = 100 * time.Millisecond
	wl := workload.DefaultConfig()
	wl.Records = 1000
	c := NewCluster(Config{
		N: 3, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return minbft.New(cfg) },
		Replies:        2,
		ClientRetry:    2 * time.Second,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        100,
		Workload:       wl,
		Seed:           9,
	})
	c.Crash(0, 500*time.Millisecond)
	res := c.Run(time.Second, 3*time.Second)
	if res.Completed == 0 {
		t.Fatal("no completions after primary crash; MinBFT view change failed")
	}
}

// TestDropRuleSilencesLink exercises link-level fault injection.
func TestDropRuleSilencesLink(t *testing.T) {
	c := testCluster(3, func(c *Cluster) {
		// Cut replica 0 (primary) off from replica 3 entirely.
		c.DropLink(0, 3, 0, nil)
	})
	c.Run(100*time.Millisecond, 300*time.Millisecond)
	// Replica 3 still converges via prepares from 1,2 — but it can never
	// have seen a preprepare directly, so votes must have come from peers.
	if c.Collector().Completed() == 0 {
		t.Fatal("cluster stalled although only one link was cut")
	}
}

// TestWANTopologyLatencies sanity-checks the region matrix.
func TestWANTopologyLatencies(t *testing.T) {
	topo := WANTopology(12, 6)
	if got := topo.ReplicaLink(0, 6); got != 100*time.Microsecond {
		t.Fatalf("same-region link = %v, want local latency", got)
	}
	sjSyd := topo.ReplicaLink(0, 2) // San Jose -> Sydney
	if sjSyd != 74*time.Millisecond {
		t.Fatalf("SJ->SYD = %v, want 74ms", sjSyd)
	}
	// Symmetry.
	if topo.ReplicaLink(2, 0) != sjSyd {
		t.Fatal("latency matrix asymmetric")
	}
	if topo.ReplicaLink(5, 5) != 10*time.Microsecond {
		t.Fatal("self link should be loopback")
	}
	// Every cross-region pair is symmetric.
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if topo.ReplicaLink(a, b) != topo.ReplicaLink(b, a) {
				t.Fatalf("asymmetric latency between regions %d and %d", a, b)
			}
		}
	}
}

// TestTCSerializationShowsInThroughput: with a slow trusted counter the
// sequential protocol's throughput collapses to ~batch/access — the Figure 8
// mechanism in miniature.
func TestTCSerializationShowsInThroughput(t *testing.T) {
	run := func(access time.Duration) float64 {
		ecfg := engine.DefaultConfig(3, 1)
		ecfg.BatchSize = 10
		wl := workload.DefaultConfig()
		wl.Records = 1000
		c := NewCluster(Config{
			N: 3, F: 1,
			Engine:         ecfg,
			NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return minbft.New(cfg) },
			Replies:        2,
			ClientRetry:    8 * time.Second,
			TrustedProfile: trusted.ProfileSGXEnclave.WithAccessCost(access),
			Clients:        200,
			Workload:       wl,
			Seed:           5,
		})
		res := c.Run(200*time.Millisecond, 800*time.Millisecond)
		return res.Throughput
	}
	fast := run(100 * time.Microsecond)
	slow := run(10 * time.Millisecond)
	if slow >= fast/2 {
		t.Fatalf("10ms trusted counter should gut throughput: fast=%.0f slow=%.0f", fast, slow)
	}
	// At 10ms per access with 2 serialized accesses per instance and batch
	// 10, the ceiling is ~batch/(2*access) = 500 txn/s; allow slack.
	if slow > 1200 {
		t.Fatalf("slow-TC throughput %.0f exceeds the access-latency bound", slow)
	}

	// Per-machine TC contention, measured directly on the shared-kernel
	// deployment. Two co-hosted MinBFT groups must roughly double the
	// busiest machine's trusted-component occupancy: every alternation on
	// the host-sequenced USIG stream drains and retargets it, so the
	// second tenant's time adds instead of interleaving. Two FlexiBFT
	// groups must not: each group's primary (the only replica touching
	// the counter, via per-group namespaced AppendF) lands on its own
	// machine, so no machine's TC timeline carries more than one group.
	busyAfter := func(n int, mk func(cfg engine.Config) engine.Protocol, groups int) time.Duration {
		mc := coHosted(n, 1, mk, groups, 21)
		mc.Run(100*time.Millisecond, 400*time.Millisecond)
		return maxTCBusy(mc)
	}
	t.Run("CoHostedMinBFTStreamContention", func(t *testing.T) {
		mk := func(cfg engine.Config) engine.Protocol { return minbft.New(cfg) }
		one := busyAfter(3, mk, 1)
		two := busyAfter(3, mk, 2)
		t.Logf("MinBFT max-machine TC busy: 1 group=%v  2 groups=%v (%.2fx)",
			one, two, float64(two)/float64(one))
		if one <= 0 {
			t.Fatal("single MinBFT group never touched the trusted component")
		}
		if float64(two) < 1.8*float64(one) {
			t.Fatalf("co-hosting a second MinBFT group added too little TC busy-time: %v -> %v (<1.8x)", one, two)
		}
	})
	t.Run("CoHostedFlexiBFTInterleaves", func(t *testing.T) {
		mk := func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) }
		one := busyAfter(4, mk, 1)
		two := busyAfter(4, mk, 2)
		t.Logf("FlexiBFT max-machine TC busy: 1 group=%v  2 groups=%v (%.2fx)",
			one, two, float64(two)/float64(one))
		if one <= 0 {
			t.Fatal("single FlexiBFT group never touched the trusted component")
		}
		if float64(two) > 1.1*float64(one) {
			t.Fatalf("co-hosting a second FlexiBFT group should not pile onto one machine's TC: %v -> %v (>1.1x)", one, two)
		}
	})
}
