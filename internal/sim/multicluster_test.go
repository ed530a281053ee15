package sim

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// multiGroupConfig builds one group's config for multi-tenant tests.
func multiGroupConfig(n, f int, mk func(cfg engine.Config) engine.Protocol, ns uint16, seed int64) Config {
	ecfg := engine.DefaultConfig(n, f)
	ecfg.BatchSize = 10
	ecfg.TrustedNamespace = ns
	wl := workload.DefaultConfig()
	wl.Records = 1000
	wl.Seed = seed
	return Config{
		N: n, F: f,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return mk(cfg) },
		Replies:        f + 1,
		ClientRetry:    8 * time.Second,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        200,
		Workload:       wl,
		Seed:           seed,
	}
}

// coHosted builds a MultiCluster of `groups` identical-shaped protocol
// groups under the default rotated co-location, each with its own derived
// sub-seed and counter namespace.
func coHosted(n, f int, mk func(cfg engine.Config) engine.Protocol, groups int, master int64) *MultiCluster {
	cfgs := make([]Config, groups)
	for g := 0; g < groups; g++ {
		cfgs[g] = multiGroupConfig(n, f, mk, uint16(g+1), SubSeed(master, g))
	}
	return NewMultiCluster(MultiConfig{Seed: master, Groups: cfgs})
}

// maxTCBusy returns the busiest machine's trusted-component occupancy.
func maxTCBusy(mc *MultiCluster) time.Duration {
	var busy time.Duration
	for i := 0; i < mc.Machines(); i++ {
		if b := mc.Machine(i).TCBusy(); b > busy {
			busy = b
		}
	}
	return busy
}

// TestMultiClusterDeterminism: same seed and group count give bit-identical
// per-group results — commit counts and the latency histogram summaries —
// across two independently constructed shared-kernel runs. MinBFT is the
// interesting subject: its host-sequenced appends exercise the machine
// stream-tenancy timeline, which must itself be deterministic.
func TestMultiClusterDeterminism(t *testing.T) {
	run := func() []Results {
		return coHosted(3, 1, func(cfg engine.Config) engine.Protocol { return minbft.New(cfg) }, 3, 11).
			Run(100*time.Millisecond, 400*time.Millisecond)
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 per-group results, got %d and %d", len(a), len(b))
	}
	for g := range a {
		if a[g] != b[g] {
			t.Fatalf("identical seeds diverged for group %d:\n  a=%+v\n  b=%+v", g, a[g], b[g])
		}
		if a[g].Completed == 0 {
			t.Fatalf("group %d committed nothing", g)
		}
	}
	// Distinct sub-seeds draw distinct workloads: groups must not be clones.
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatalf("all co-hosted groups produced identical results %+v; sub-seeding not wired", a[0])
	}
}

// TestMultiClusterGroupIsolation: with one machine per replica (no shared
// hardware), adding a group must not perturb another group's run at all —
// the per-group sub-seeded RNG streams keep a group's event order
// independent of its neighbours. This is the regression guard for the
// former latent RNG-stream coupling.
func TestMultiClusterGroupIsolation(t *testing.T) {
	mk := func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) }
	const n, master = 4, 7
	dedicated := func(g, i int) int { return g*n + i } // no machine shared
	build := func(groups int) []Results {
		cfgs := make([]Config, groups)
		for g := 0; g < groups; g++ {
			cfgs[g] = multiGroupConfig(n, 1, mk, uint16(g+1), SubSeed(master, g))
		}
		mc := NewMultiCluster(MultiConfig{Seed: master, Groups: cfgs, Placement: dedicated})
		return mc.Run(100*time.Millisecond, 300*time.Millisecond)
	}
	alone := build(1)
	paired := build(2)
	if alone[0].Completed == 0 {
		t.Fatal("single group committed nothing")
	}
	if alone[0] != paired[0] {
		t.Fatalf("adding a group on dedicated machines perturbed group 0:\n  alone=%+v\n  paired=%+v",
			alone[0], paired[0])
	}
}
