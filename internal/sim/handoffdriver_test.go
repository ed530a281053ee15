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

// testGroups assembles a 2-group FlexiBFT deployment's group configs. A
// failover deployment shrinks the recovery timeouts so an election fits the
// short test window; valueSize sets the workload's written value size.
func testGroups(seed int64, failover bool, valueSize int) []Config {
	const n, f = 4, 1
	groups := make([]Config, 2)
	for g := range groups {
		ecfg := engine.DefaultConfig(n, f)
		ecfg.BatchSize = 16
		ecfg.CaptureSnapshots = false
		ecfg.TrustedNamespace = uint16(g + 1)
		retry := 16 * time.Second
		if failover {
			ecfg.ViewChangeTimeout = 10 * time.Millisecond
			retry = 128 * time.Millisecond
		}
		wl := workload.DefaultConfig()
		wl.Seed = SubSeed(seed, g)
		if valueSize > 0 {
			wl.ValueSize = valueSize
		}
		groups[g] = Config{
			N: n, F: f,
			Engine:      ecfg,
			NewProtocol: func(_ types.ReplicaID, c engine.Config) engine.Protocol { return flexibft.New(c) },
			Replies:     f + 1,
			ClientRetry: retry,
			Clients:     32,
			Workload:    wl,
			Seed:        SubSeed(seed, g),
		}
	}
	return groups
}

// handoffTestDeployment hands the bottom quarter of the hash space from
// group 0 to group 1: a rebalance, or with failover a crash of group 0's
// primary and an evacuation 8 ms after it.
func handoffTestDeployment(seed int64, failover bool, valueSize int) (*MultiCluster, *HandoffDriver) {
	mc := NewMultiCluster(MultiConfig{Seed: seed, Groups: testGroups(seed, failover, valueSize)})
	cfg := HandoffConfig{From: 0, To: 1, Range: kvstore.HashRange{Start: 0, End: 1<<62 - 1}}
	if failover {
		cfg.DetectAfter = 8 * time.Millisecond
	}
	return mc, mc.AttachHandoffDriver(cfg)
}

// runHandoff runs a deployment over the window its scenario needs.
func runHandoff(mc *MultiCluster, failover bool) {
	if failover {
		mc.Run(60*time.Millisecond, 200*time.Millisecond)
	} else {
		mc.Run(40*time.Millisecond, 120*time.Millisecond)
	}
}

// checkDone fails t unless the handoff completed cleanly: no point error,
// one attested access, the decision on both groups, and a census of real
// keys with none lost or doubly owned.
func checkDone(t *testing.T, d *HandoffDriver) HandoffResults {
	t.Helper()
	r := d.Results()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if r.TCAccesses != 1 {
		t.Fatalf("placement change cost %d attested accesses, want exactly 1", r.TCAccesses)
	}
	if r.DecisionsDriven != 2 {
		t.Fatalf("decision reached %d groups, want 2", r.DecisionsDriven)
	}
	cen := d.Census()
	if cen.Checked == 0 || cen.DriveIncomplete {
		t.Fatalf("census proves nothing: %+v", cen)
	}
	if err := cen.Check(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRebalanceDriverAccounting runs one migration and checks the
// structural invariants: the handoff completes inside the window, moves
// real records, drives the decision to both groups, costs exactly one
// attested access, loses and duplicates no key, and the probes observe both
// the dip and the recovery.
func TestRebalanceDriverAccounting(t *testing.T) {
	mc, d := handoffTestDeployment(7, false, 0)
	runHandoff(mc, false)
	r := checkDone(t, d)
	t.Logf("%+v", r)
	if r.FreezeAt == 0 || r.FlipAt <= r.FreezeAt {
		t.Fatalf("handoff did not complete: freeze=%v flip=%v", r.FreezeAt, r.FlipAt)
	}
	if r.MovedRecords == 0 || r.InstallChunks == 0 {
		t.Fatalf("nothing moved: %d records in %d chunks", r.MovedRecords, r.InstallChunks)
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

// TestFailoverDriverAccounting runs one primary crash + evacuation and
// checks the structural invariants: the crash really interrupts service,
// the view change installs, the evacuation completes with exactly one
// attested access and both decisions driven, no key is lost or doubly
// owned, and the probe population recovers on the destination.
func TestFailoverDriverAccounting(t *testing.T) {
	mc, d := handoffTestDeployment(7, true, 0)
	runHandoff(mc, true)
	r := checkDone(t, d)
	t.Logf("crash=%v freeze=%v freezeDone=%v flip=%v unavailable=%v recoveredAll=%v moved=%d chunks=%d vcs=%d",
		r.CrashAt, r.FreezeAt, r.FreezeDoneAt, r.FlipAt, r.UnavailableFor, r.RecoveredAllAt,
		r.MovedRecords, r.InstallChunks, r.ViewChanges)
	if r.FlipAt == 0 || r.FlipAt <= r.FreezeDoneAt || r.FreezeDoneAt <= r.CrashAt {
		t.Fatalf("evacuation timeline out of order: crash=%v freezeDone=%v flip=%v", r.CrashAt, r.FreezeDoneAt, r.FlipAt)
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
}

// TestRebalanceDriverDeterminism and TestFailoverDriverDeterminism: same
// seed ⇒ bit-identical results, the shared-kernel property every experiment
// relies on (and what the sorted request-issue ordering in the routing
// layers protects).
func TestRebalanceDriverDeterminism(t *testing.T) { checkDeterminism(t, false) }

func TestFailoverDriverDeterminism(t *testing.T) { checkDeterminism(t, true) }

func checkDeterminism(t *testing.T, failover bool) {
	run := func() HandoffResults {
		mc, d := handoffTestDeployment(11, failover, 0)
		runHandoff(mc, failover)
		return d.Results()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestRebalanceDriverSourceReleasesRange and
// TestFailoverDriverSourceReleasesRange: after the handoff the source's
// replicas answer WrongShard for keys in the range while the destination's
// serve them — no key is served by both groups.
func TestRebalanceDriverSourceReleasesRange(t *testing.T) { checkReleased(t, false) }

func TestFailoverDriverSourceReleasesRange(t *testing.T) { checkReleased(t, true) }

func checkReleased(t *testing.T, failover bool) {
	mc, d := handoffTestDeployment(13, failover, 0)
	runHandoff(mc, failover)
	if d.Results().FlipAt == 0 {
		t.Fatal("handoff never flipped")
	}
	// Replica 1 of the source survives a failover's crash of its primary.
	src := mc.groups[0].replicas[1].Store()
	dst := mc.groups[1].replicas[0].Store()
	if len(src.ReleasedRanges()) == 0 {
		t.Fatal("source store released nothing")
	}
	key := uint64(handoffKeyBase + 1)
	for !d.cfg.Range.Contains(kvstore.KeyHash(key)) {
		key++
	}
	if res := src.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()); string(res) != kvstore.WrongShard {
		t.Fatalf("source still answers %q for moved key %d", res, key)
	}
	if res := dst.Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()); string(res) == kvstore.WrongShard {
		t.Fatalf("destination refuses moved key %d too — nobody owns it", key)
	}
}

// TestHandoffStagesEveryChunk: with 1 KiB values the export spans several
// install chunks. Each is staged (the machine decides only after every one
// answered RangeStaged), the census holds, and the orchestrator never has
// two requests in flight to one group — checked by sampling both pools'
// outstanding external requests every 20µs of virtual time.
func TestHandoffStagesEveryChunk(t *testing.T) {
	for _, failover := range []bool{false, true} {
		mc, d := handoffTestDeployment(17, failover, 1024)
		worst := 0
		var sample func()
		sample = func() {
			for _, g := range mc.groups {
				orch := types.ClientID(g.pool.numClients + handoffClientBase + HandoffProbes)
				n := 0
				for key := range g.pool.external {
					if key.Client == orch {
						n++
					}
				}
				worst = max(worst, n)
			}
			mc.schedule(&event{at: mc.now + 20*time.Microsecond, kind: evFunc, fn: sample})
		}
		mc.schedule(&event{kind: evFunc, fn: sample})
		runHandoff(mc, failover)
		r := checkDone(t, d)
		t.Logf("failover=%v moved=%d chunks=%d window=%v", failover, r.MovedRecords, r.InstallChunks, r.MigrationWindow)
		if r.InstallChunks < 2 {
			t.Fatalf("failover=%v: export of %d records fit %d chunk(s), want several", failover, r.MovedRecords, r.InstallChunks)
		}
		if worst != 1 {
			t.Fatalf("failover=%v: orchestrator had up to %d requests in flight to one group, want exactly 1", failover, worst)
		}
	}
}

// TestCrashRecoverReplicaInjection exercises the MultiCluster fault hooks
// without a driver: group 0's primary crashes mid-run and recovers later;
// group 0 view-changes and keeps serving, the co-hosted group 1 never
// elects, and the recovered replica is processing again by the end.
func TestCrashRecoverReplicaInjection(t *testing.T) {
	mc := NewMultiCluster(MultiConfig{Seed: 21, Groups: testGroups(21, true, 0)})
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
