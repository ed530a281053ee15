package harness

import "testing"

// TestFailoverRecoveryContrast is the acceptance check of per-shard
// failover on the shared kernel, at 4 co-located shards with group 0's
// primary crashing mid-workload and the stalled range evacuating to group
// 1 as an attested placement change:
//
//   - Both protocols ride through: the surviving backups elect a new
//     primary (client resends drive the suspicion), the evacuation
//     completes, the commit decision reaches both groups, and the
//     placement change costs EXACTLY ONE attested counter access.
//   - Zero lost and zero doubly-owned keys: every probe key the reply
//     quorum acknowledged lives in exactly one group's replicated store
//     after the failover.
//   - The contrast is in draining the backlog, not in electing. The outage
//     until the FIRST probe is served again is protocol-independent: resend
//     sweep + view-change timeout + election, after which the backups hand
//     the requests they hold to the new primary the moment the view
//     installs, so neither protocol waits for another sweep. MinBFT's new
//     primary then drains the crash backlog one host-sequenced instance at
//     a time (paying stream drains against every co-hosted group), so the
//     time until EVERY probe lane is served again and the full crash→flip
//     unavailability window both stretch well past FlexiBFT's.
//
// Deterministic under the fixed seed (sub-seeded per group, sorted resend
// sweeps).
func TestFailoverRecoveryContrast(t *testing.T) {
	const (
		scale  = Scale(8)
		shards = 4
	)
	flexi, err := FigFailoverPoint("Flexi-BFT", shards, scale)
	if err != nil {
		t.Fatal(err)
	}
	min, err := FigFailoverPoint("MinBFT", shards, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []FailoverPoint{flexi, min} {
		r := p.Fo
		t.Logf("%-10s crash=%v outage=%v recoveredAll=%v flip=%v views=%d moved=%d retries=%d accesses=%d census=%+v",
			p.Protocol, r.CrashAt, r.UnavailableFor, r.RecoveredAllAt, r.FlipAt,
			r.ViewChanges, r.MovedRecords, r.ProbeRetries, r.TCAccesses, p.Census)
		if r.TCAccesses != 1 {
			t.Fatalf("%s: placement change cost %d attested accesses, want exactly 1", p.Protocol, r.TCAccesses)
		}
		if r.ViewChanges == 0 {
			t.Fatalf("%s: the victim group never installed a new view", p.Protocol)
		}
		if r.FlipAt <= r.FreezeDoneAt || r.FreezeDoneAt <= r.CrashAt {
			t.Fatalf("%s: failover timeline out of order: crash=%v freezeDone=%v flip=%v",
				p.Protocol, r.CrashAt, r.FreezeDoneAt, r.FlipAt)
		}
		if r.DecisionsDriven != 2 {
			t.Fatalf("%s: decision reached %d groups, want 2", p.Protocol, r.DecisionsDriven)
		}
		if r.MovedRecords == 0 {
			t.Fatalf("%s: evacuation moved nothing", p.Protocol)
		}
		if r.UnavailableFor <= 0 || r.RecoveredAllAt < r.UnavailableFor {
			t.Fatalf("%s: recovery windows inconsistent: first=%v all=%v",
				p.Protocol, r.UnavailableFor, r.RecoveredAllAt)
		}
		if p.Census.DriveIncomplete {
			t.Fatalf("%s: census taken before the drive completed", p.Protocol)
		}
		if p.Census.Checked == 0 || p.Census.Lost != 0 || p.Census.DoublyOwned != 0 {
			t.Fatalf("%s: census %+v, want >0 keys with zero lost and zero doubly-owned",
				p.Protocol, p.Census)
		}
	}
	// The contrast: full probe-population recovery (crash → every lane of
	// the dead group's keys served again) and the full unavailability window
	// (crash → attested flip on the destination) are both measurably shorter
	// under FlexiBFT.
	if min.Fo.RecoveredAllAt < flexi.Fo.RecoveredAllAt*3/2 {
		t.Fatalf("MinBFT full recovery %v not ≥1.5x Flexi-BFT's %v",
			min.Fo.RecoveredAllAt, flexi.Fo.RecoveredAllAt)
	}
	flexiWindow := flexi.Fo.FlipAt - flexi.Fo.CrashAt
	minWindow := min.Fo.FlipAt - min.Fo.CrashAt
	if minWindow < flexiWindow*6/5 {
		t.Fatalf("MinBFT failover window %v not ≥1.2x Flexi-BFT's %v", minWindow, flexiWindow)
	}
}
