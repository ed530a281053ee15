package harness

import "testing"

// TestRebalanceRecoveryContrast is the acceptance check of live
// rebalancing on the shared kernel, at 4 co-located shards with a
// mid-workload range migration from group 0 to group 1:
//
//   - The handoff completes: records move, both groups receive the
//     decision, and the placement change costs EXACTLY ONE attested
//     counter access (measured — the driver mints a real placement
//     attestation on the orchestrator machine's component).
//   - Probes observe a real availability dip (refused writes retried
//     across the freeze→flip window) and FlexiBFT recovers steady-state
//     probe throughput after the flip.
//   - The contrast: MinBFT's host-sequenced trusted component both slows
//     the handoff's consensus rounds and taxes the flip access with
//     stream drains, so its migration window — the interval the range is
//     write-unavailable — is materially longer than FlexiBFT's.
func TestRebalanceRecoveryContrast(t *testing.T) {
	const (
		scale  = Scale(8)
		shards = 4
	)
	flexi, err := FigRebalancePoint(Env{Scale: scale}, "Flexi-BFT", shards)
	if err != nil {
		t.Fatal(err)
	}
	min, err := FigRebalancePoint(Env{Scale: scale}, "MinBFT", shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []RebalancePoint{flexi, min} {
		r := p.Reb
		t.Logf("%-10s window=%v moved=%d chunks=%d dip(max=%v n=%d) pre=%.0f/s post=%.0f/s recovery=%.2f retries=%d accesses=%d",
			p.Protocol, r.MigrationWindow, r.MovedRecords, r.InstallChunks,
			r.DipMaxLat, r.DipCompleted, r.PreThroughput, r.PostThroughput,
			r.Recovery(), r.ProbeRetries, r.TCAccesses)
		if r.TCAccesses != 1 {
			t.Fatalf("%s: placement change cost %d attested accesses, want exactly 1", p.Protocol, r.TCAccesses)
		}
		if r.MovedRecords == 0 || r.InstallChunks == 0 {
			t.Fatalf("%s: migration moved nothing (%d records, %d chunks)", p.Protocol, r.MovedRecords, r.InstallChunks)
		}
		if r.DecisionsDriven != 2 {
			t.Fatalf("%s: decision reached %d groups, want 2", p.Protocol, r.DecisionsDriven)
		}
		if r.FlipAt <= r.FreezeAt {
			t.Fatalf("%s: flip (%v) did not follow freeze (%v)", p.Protocol, r.FlipAt, r.FreezeAt)
		}
		if r.ProbeRetries == 0 {
			t.Fatalf("%s: probes never saw the migration (no refused writes)", p.Protocol)
		}
		if r.PreCompleted == 0 || r.PostCompleted == 0 {
			t.Fatalf("%s: probe windows empty (pre=%d post=%d)", p.Protocol, r.PreCompleted, r.PostCompleted)
		}
	}
	// Acceptance: FlexiBFT recovers steady-state probe throughput after the
	// handoff.
	if rec := flexi.Reb.Recovery(); rec < 0.8 {
		t.Fatalf("Flexi-BFT post-migration probe throughput recovered only %.2fx of pre-freeze", rec)
	}
	// The contrast: the range's write-unavailability window is materially
	// longer under the host-sequenced discipline.
	if min.Reb.MigrationWindow < flexi.Reb.MigrationWindow*3/2 {
		t.Fatalf("MinBFT migration window %v not ≥1.5x Flexi-BFT's %v",
			min.Reb.MigrationWindow, flexi.Reb.MigrationWindow)
	}
	if min.Reb.DipMaxLat <= flexi.Reb.DipMaxLat {
		t.Fatalf("MinBFT worst blocked-probe latency %v not above Flexi-BFT's %v",
			min.Reb.DipMaxLat, flexi.Reb.DipMaxLat)
	}
}
