package harness

import (
	"errors"
	"fmt"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/shard"
	"flexitrust/internal/sim"
)

// Live-rebalancing experiment: S co-located consensus groups under
// background single-shard write load, plus the handoff driver
// (sim.HandoffDriver, which runs the runtime's txn.Handoff step machine)
// migrating one hash range from group 0 to group 1 mid-measurement inside
// the shared kernel. The driver's probe writers — closed-loop
// clients whose keys hash into the migrating range — surface the
// availability dip (writes refused between freeze and flip, retried until
// the flip lands) and the steady-state recovery after the handoff. The
// contrast under test is the commit-point discipline again: FlexiTrust
// flips ownership with one freely-interleaving attested access while its
// groups keep committing, whereas MinBFT's host-sequenced component both
// slows the handoff's consensus rounds (freeze, install chunks, decisions
// all ride ordinary consensus) and taxes the flip access with stream
// drains, stretching the window during which the range is unavailable.

// rebalanceClientsPerShard matches the transaction experiment's background
// load.
const rebalanceClientsPerShard = 64

// probeRange is the hash interval the rebalance row migrates and the
// failover row evacuates: the bottom 1/16 of the hash space, so the export
// stays a few chunks at smoke scales while still moving real records.
var probeRange = kvstore.HashRange{Start: 0, End: 1<<60 - 1}

// RebalancePoint is one measured (protocol, shard count) migration run.
type RebalancePoint struct {
	Protocol string
	Shards   int
	// Reb summarizes the handoff and its probes.
	Reb sim.HandoffResults
	// Census audits every acknowledged probe key for exactly-one-owner.
	Census sim.HandoffCensus
	// WriteThroughput / WriteMeanLat summarize the background single-shard
	// write load across all groups.
	WriteThroughput float64
	WriteMeanLat    time.Duration
}

// FigRebalancePoint runs one mid-workload migration on the shared kernel: S
// groups plus the rebalance driver moving probeRange from group 0 to
// group 1 a third into the measurement window.
func FigRebalancePoint(env Env, protocol string, shards int) (RebalancePoint, error) {
	if shards < 2 {
		return RebalancePoint{}, fmt.Errorf("harness: rebalancing needs at least 2 shards, have %d", shards)
	}
	d, err := env.deploy(fmt.Sprintf("rebalance %s S=%d", protocol, shards),
		protocol, shards, rebalanceClientsPerShard, nil, nil)
	if err != nil {
		return RebalancePoint{}, err
	}
	drv := d.AttachHandoffDriver(sim.HandoffConfig{
		From:               0,
		To:                 1,
		Range:              probeRange,
		HostSeqCommitPoint: d.spec.hostSeq,
	})
	per, err := d.run()
	agg := shard.Aggregate(per)
	p := RebalancePoint{
		Protocol:        protocol,
		Shards:          shards,
		Reb:             drv.Results(),
		Census:          drv.Census(),
		WriteThroughput: agg.Throughput,
		WriteMeanLat:    agg.MeanLat,
	}
	return p, errors.Join(err, drv.Err(), p.Census.Check())
}

// onePlacementAccess is the rebalance and failover rows' invariant: a
// placement change costs exactly one attested access.
func onePlacementAccess(e BenchEntry) error {
	if e.AttestedAccesses != 1 {
		return fmt.Errorf("placement change cost %d attested accesses, want exactly 1", e.AttestedAccesses)
	}
	return nil
}

// censusCell renders a handoff census: ok, L<lost>/D<doubly-owned>, or n/a
// when the run ended before the decision reached both groups.
func censusCell(c sim.HandoffCensus) string {
	switch {
	case c.DriveIncomplete:
		return "n/a"
	case c.Lost != 0 || c.DoublyOwned != 0:
		return fmt.Sprintf("L%d/D%d", c.Lost, c.DoublyOwned)
	}
	return "ok"
}

// rebalanceRow contrasts a mid-workload range migration under FlexiBFT vs
// MinBFT at each shard count: the migration window (freeze → attested
// flip), the probe availability dip inside it, the steady-state recovery
// after it, and the one-attested-access-per-placement-change accounting.
func rebalanceRow() Experiment {
	return Experiment{Name: "rebalance",
		Desc:      "live shard rebalancing: mid-workload range handoff with an attested placement flip, FlexiBFT vs MinBFT",
		Protocols: []string{"Flexi-BFT", "MinBFT"}, Axis: []int{4}, Shards: true,
		title: fmt.Sprintf("Live rebalancing (shared kernel): range handoff group 0 → 1 mid-workload, %d probe writers, %d clients/shard, f=%d",
			sim.HandoffProbes, rebalanceClientsPerShard, kernelF),
		columns: fmt.Sprintf("%-10s %-7s %10s %7s %7s %12s %12s %9s %8s %8s %6s",
			"protocol", "shards", "window", "moved", "chunks", "dip max lat", "post lat", "recovery", "retries", "tc acc", "census"),
		footer: "recovery = post-flip probe throughput / pre-freeze probe throughput; tc acc = attested accesses per placement change (must be 1); census audits acked keys for exactly-one-owner (n/a: the run ended before the decision reached both groups)",
		point: func(env Env, proto string, s, _ int, _ Point) (Point, error) {
			p, err := FigRebalancePoint(env, proto, s)
			r := p.Reb
			return Point{
				Line: fmt.Sprintf("%-10s %-7d %10v %7d %7d %12v %12v %8.2fx %8d %8d %6s",
					proto, s, r.MigrationWindow.Round(10*time.Microsecond), r.MovedRecords, r.InstallChunks,
					r.DipMaxLat.Round(10*time.Microsecond), r.PostMeanLat.Round(10*time.Microsecond),
					r.Recovery(), r.ProbeRetries, r.TCAccesses, censusCell(p.Census)),
				Entry: BenchEntry{Experiment: "rebalance", Protocol: proto, Shards: s,
					Throughput: p.WriteThroughput, Completed: r.PreCompleted + r.DipCompleted + r.PostCompleted,
					AttestedAccesses: r.TCAccesses, MigrationWindowNs: r.MigrationWindow.Nanoseconds()},
			}, err
		},
		check: onePlacementAccess}
}
