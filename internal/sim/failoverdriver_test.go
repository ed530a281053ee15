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

// failoverTestDeployment assembles a 2-group FlexiBFT deployment whose
// group-0 primary is killed mid-run, with the failover driver evacuating
// group 0's bottom range to group 1. Timeouts are shrunk so the election
// fits the short test window.
func failoverTestDeployment(seed int64, hostSeq bool) (*MultiCluster, *FailoverDriver) {
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
		ecfg.ViewChangeTimeout = 10 * time.Millisecond
		wl := workload.DefaultConfig()
		wl.Seed = SubSeed(seed, g)
		groups[g] = Config{
			N: n, F: f,
			Engine:      ecfg,
			NewProtocol: func(_ types.ReplicaID, c engine.Config) engine.Protocol { return flexibft.New(c) },
			Replies:     f + 1,
			ClientRetry: 128 * time.Millisecond,
			Clients:     32,
			Workload:    wl,
			Seed:        SubSeed(seed, g),
		}
	}
	mc := NewMultiCluster(MultiConfig{Seed: seed, Groups: groups})
	d := mc.AttachFailoverDriver(FailoverDriverConfig{
		Group:              0,
		To:                 1,
		Range:              kvstore.HashRange{Start: 0, End: 1<<62 - 1},
		DetectAfter:        8 * time.Millisecond,
		Probes:             4,
		HostSeqCommitPoint: hostSeq,
		Seed:               SubSeed(seed, 1<<22),
	})
	return mc, d
}

// TestCrashRecoverReplicaInjection exercises the MultiCluster fault hooks
// without a driver: group 0's primary crashes mid-run and recovers later;
// group 0 view-changes and keeps serving, the co-hosted group 1 never
// elects, and the recovered replica is processing again by the end.
func TestCrashRecoverReplicaInjection(t *testing.T) {
	const n, f = 4, 1
	groups := make([]Config, 2)
	for g := range groups {
		ecfg := engine.DefaultConfig(n, f)
		ecfg.BatchSize = 16
		ecfg.CaptureSnapshots = false
		ecfg.SkipBatchDigestCheck = true
		ecfg.TrustedNamespace = uint16(g + 1)
		ecfg.ViewChangeTimeout = 10 * time.Millisecond
		wl := workload.DefaultConfig()
		wl.Seed = SubSeed(21, g)
		groups[g] = Config{
			N: n, F: f,
			Engine:      ecfg,
			NewProtocol: func(_ types.ReplicaID, c engine.Config) engine.Protocol { return flexibft.New(c) },
			Replies:     f + 1,
			ClientRetry: 128 * time.Millisecond,
			Clients:     32,
			Workload:    wl,
			Seed:        SubSeed(21, g),
		}
	}
	mc := NewMultiCluster(MultiConfig{Seed: 21, Groups: groups})
	mc.CrashReplica(0, 0, 100*time.Millisecond)
	mc.RecoverReplica(0, 0, 180*time.Millisecond)
	res := mc.Run(60*time.Millisecond, 200*time.Millisecond)
	if res[0].ViewChanges == 0 {
		t.Fatalf("crashed-primary group never view-changed: %+v", res[0])
	}
	if res[1].ViewChanges != 0 {
		t.Fatalf("co-hosted group elected without a failure: %+v", res[1])
	}
	if res[0].Completed == 0 {
		t.Fatal("group 0 served nothing across the crash")
	}
	if mc.groups[0].replicas[0].crashed {
		t.Fatal("replica 0 still marked crashed after RecoverReplica")
	}
}

// TestFailoverDriverAccounting runs one primary crash + evacuation and
// checks the structural invariants: the crash really interrupts service,
// the view change installs, the evacuation completes with exactly one
// attested access and both decisions driven, and the probe population
// recovers on the destination.
func TestFailoverDriverAccounting(t *testing.T) {
	mc, d := failoverTestDeployment(7, false)
	mc.Run(60*time.Millisecond, 200*time.Millisecond)
	r := d.Results()
	t.Logf("crash=%v evacStart=%v freezeDone=%v flip=%v unavailable=%v recoveredAll=%v moved=%d chunks=%d vcs=%d",
		r.CrashAt, r.EvacStartAt, r.FreezeDoneAt, r.FlipAt, r.UnavailableFor, r.RecoveredAllAt,
		r.MovedRecords, r.InstallChunks, r.ViewChanges)
	if r.TCAccesses != 1 {
		t.Fatalf("placement change cost %d attested accesses, want exactly 1", r.TCAccesses)
	}
	if r.FlipAt == 0 || r.FlipAt <= r.FreezeDoneAt || r.FreezeDoneAt <= r.CrashAt {
		t.Fatalf("evacuation timeline out of order: crash=%v freezeDone=%v flip=%v", r.CrashAt, r.FreezeDoneAt, r.FlipAt)
	}
	if r.DecisionsDriven != 2 {
		t.Fatalf("decision reached %d groups, want 2", r.DecisionsDriven)
	}
	if r.ViewChanges == 0 {
		t.Fatal("victim group never installed a new view")
	}
	if r.UnavailableFor <= 0 || r.RecoveredAllAt < r.UnavailableFor {
		t.Fatalf("recovery windows inconsistent: first=%v all=%v", r.UnavailableFor, r.RecoveredAllAt)
	}
	if r.PreCompleted == 0 || r.PostCompleted == 0 {
		t.Fatalf("probe windows empty (pre=%d post=%d)", r.PreCompleted, r.PostCompleted)
	}
	cen := d.Census()
	if cen.Checked == 0 {
		t.Fatal("census checked nothing")
	}
	if cen.Lost != 0 || cen.DoublyOwned != 0 {
		t.Fatalf("census found %d lost and %d doubly-owned of %d acked keys", cen.Lost, cen.DoublyOwned, cen.Checked)
	}
}

// TestFailoverDriverDeterminism: same seed, same timeline.
func TestFailoverDriverDeterminism(t *testing.T) {
	run := func() FailoverResults {
		mc, d := failoverTestDeployment(11, false)
		mc.Run(60*time.Millisecond, 200*time.Millisecond)
		return d.Results()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("failover runs diverged under one seed:\n%+v\n%+v", a, b)
	}
}

// TestFailoverDriverSourceReleasesRange: after the evacuation the victim
// group answers WrongShard for keys in the range while the destination
// serves them.
func TestFailoverDriverSourceReleasesRange(t *testing.T) {
	mc, d := failoverTestDeployment(13, false)
	mc.Run(60*time.Millisecond, 200*time.Millisecond)
	if d.Results().FlipAt == 0 {
		t.Fatal("evacuation never flipped")
	}
	key := uint64(1<<45 + 1)
	for !d.cfg.Range.Contains(kvstore.KeyHash(key)) {
		key++
	}
	// Survivor replica 1 of the victim group vs replica 0 of the
	// destination.
	src := mc.groups[0].replicas[1].Store()
	dst := mc.groups[1].replicas[0].Store()
	if res := src.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()); string(res) != kvstore.WrongShard {
		t.Fatalf("victim group still answers %q for an evacuated key", res)
	}
	if res := dst.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()); string(res) == kvstore.WrongShard {
		t.Fatal("destination refuses the evacuated range")
	}
}
