package sim

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// rebalanceTestDeployment assembles a small 2-group FlexiBFT deployment
// with a rebalance driver moving the bottom quarter of the hash space from
// group 0 to group 1.
func rebalanceTestDeployment(seed int64, hostSeq bool) (*MultiCluster, *RebalanceDriver) {
	const n, f = 4, 1
	groups := make([]Config, 2)
	for g := range groups {
		g := g
		ecfg := engine.DefaultConfig(n, f)
		ecfg.BatchSize = 16
		ecfg.Parallel = true
		ecfg.CaptureSnapshots = false
		ecfg.SkipBatchDigestCheck = true
		ecfg.TrustedNamespace = uint16(g + 1)
		wl := workload.DefaultConfig()
		wl.Seed = SubSeed(seed, g)
		groups[g] = Config{
			N: n, F: f,
			Engine:      ecfg,
			NewProtocol: func(_ types.ReplicaID, c engine.Config) engine.Protocol { return flexibft.New(c) },
			Replies:     f + 1,
			ClientRetry: 16 * time.Second,
			Clients:     32,
			Workload:    wl,
			Seed:        SubSeed(seed, g),
		}
	}
	mc := NewMultiCluster(MultiConfig{Seed: seed, Groups: groups})
	d := mc.AttachRebalanceDriver(RebalanceDriverConfig{
		From:               0,
		To:                 1,
		Range:              kvstore.HashRange{Start: 0, End: 1<<62 - 1},
		Probes:             4,
		HostSeqCommitPoint: hostSeq,
		Seed:               SubSeed(seed, 1<<21),
	})
	return mc, d
}

// TestRebalanceDriverAccounting runs one migration and checks the
// structural invariants: the handoff completes inside the window, moves
// real records in ≥1 chunks, drives the decision to both groups, costs
// exactly one attested access, and the probes observe both the dip and the
// recovery.
func TestRebalanceDriverAccounting(t *testing.T) {
	mc, d := rebalanceTestDeployment(7, false)
	mc.Run(40*time.Millisecond, 120*time.Millisecond)
	r := d.Results()
	t.Logf("%+v", r)
	if r.FreezeAt == 0 || r.FlipAt <= r.FreezeAt {
		t.Fatalf("handoff did not complete: freeze=%v flip=%v", r.FreezeAt, r.FlipAt)
	}
	if r.TCAccesses != 1 {
		t.Fatalf("placement change cost %d attested accesses, want 1", r.TCAccesses)
	}
	if r.MovedRecords == 0 || r.InstallChunks == 0 {
		t.Fatalf("nothing moved: %d records in %d chunks", r.MovedRecords, r.InstallChunks)
	}
	if r.DecisionsDriven != 2 {
		t.Fatalf("decision reached %d groups, want 2", r.DecisionsDriven)
	}
	if r.ProbeRetries == 0 {
		t.Fatal("no probe was ever refused — the freeze window was invisible")
	}
	if r.PreCompleted == 0 || r.PostCompleted == 0 || r.DipCompleted == 0 {
		t.Fatalf("probe windows empty: pre=%d dip=%d post=%d", r.PreCompleted, r.DipCompleted, r.PostCompleted)
	}
	if r.DipMaxLat < r.MigrationWindow {
		t.Fatalf("worst dip latency %v below the migration window %v — blocked probes were not measured across it",
			r.DipMaxLat, r.MigrationWindow)
	}
}

// TestRebalanceDriverDeterminism: same seed ⇒ bit-identical results, the
// shared-kernel property every experiment relies on (and what the sorted
// request-issue ordering in the routing layers protects).
func TestRebalanceDriverDeterminism(t *testing.T) {
	run := func() RebalanceResults {
		mc, d := rebalanceTestDeployment(11, false)
		mc.Run(40*time.Millisecond, 120*time.Millisecond)
		return d.Results()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestRebalanceDriverSourceReleasesRange: after the migration, the source
// group's replicas answer WrongShard for keys in the moved range and the
// destination's replicas own the transferred records — no key is served by
// both groups (the doubly-owned-range check at the store level).
func TestRebalanceDriverSourceReleasesRange(t *testing.T) {
	mc, d := rebalanceTestDeployment(13, false)
	mc.Run(40*time.Millisecond, 120*time.Millisecond)
	r := d.Results()
	if r.FlipAt == 0 {
		t.Fatal("handoff did not flip")
	}
	src := mc.groups[0].replicas[0].Store()
	dst := mc.groups[1].replicas[0].Store()
	if len(src.ReleasedRanges()) == 0 {
		t.Fatal("source store released nothing")
	}
	// A probe key that committed post-flip lives on the destination and is
	// refused by the source.
	key := uint64(1<<44 + 1)
	for !d.cfg.Range.Contains(kvstore.KeyHash(key)) {
		key++
	}
	srcRes := src.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
	if string(srcRes) != kvstore.WrongShard {
		t.Fatalf("source still serves moved key %d: %q", key, srcRes)
	}
	dstRes := dst.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
	if string(dstRes) == kvstore.WrongShard {
		t.Fatalf("destination refuses moved key %d too — nobody owns it", key)
	}
}
