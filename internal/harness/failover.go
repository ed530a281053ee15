package harness

import (
	"errors"
	"fmt"
	"time"

	"flexitrust/internal/sim"
)

// Mid-failure availability experiment: S co-located consensus groups under
// background write load; at a configured virtual time group 0's primary
// fail-stops, and after the (simulated) health monitor's stall threshold
// the handoff driver evacuates group 0's probe range to group 1 as an
// attested placement change (sim.HandoffDriver with a detection delay,
// running the runtime's txn.Handoff step machine). "Vivisecting the
// Dissection" argues view-change/recovery paths are exactly where
// trusted-component designs differ most; this experiment makes that
// concrete on the shared kernel. The probes surface the whole outage:
// stalled until the surviving backups elect a new primary (driven by
// client resends), refused while the range is frozen, serving again once
// the attested flip lands on the destination. FlexiBFT re-proposes the
// backlog with freely-interleaving AppendF accesses and drains it with
// parallel instances; MinBFT's new primary re-proposes through the
// host-sequenced USIG stream — paying drains against every co-hosted
// group — and then works the backlog one sequential instance at a time, so
// both its election tail and its evacuation window stretch.

// failoverClientsPerShard is the background load.
const (
	failoverClientsPerShard = 192
	// failoverViewChangeTimeout / failoverClientRetry shrink the recovery
	// timeouts so an election fits a quick-scale measurement window; both
	// protocols run the same values, so the contrast stays apples to
	// apples. failoverClientRetry is the resend backoff's ceiling: the first
	// complaint goes out 12 ms after the send.
	failoverViewChangeTimeout = 8 * time.Millisecond
	failoverClientRetry       = 96 * time.Millisecond
	failoverDetectAfter       = 6 * time.Millisecond
	// failoverMaxScale is the largest window divisor the crash, election
	// and evacuation sequence completes under: above it MinBFT's decision
	// has not reached both groups by the window's end.
	failoverMaxScale = 8
)

// FailoverPoint is one measured (protocol, shard count) primary-failure
// run.
type FailoverPoint struct {
	Protocol string
	Shards   int
	// Fo summarizes the crash, the election, the evacuation and the probes.
	Fo sim.HandoffResults
	// Census audits every acknowledged probe key for exactly-one-owner.
	Census sim.HandoffCensus
	// WriteThroughput summarizes the background write load across all
	// groups; ViewChanges sums installed views across them (only the
	// victim group should elect).
	WriteThroughput float64
	ViewChanges     uint64
}

// FigFailoverPoint runs one mid-workload primary failure on the shared
// kernel: S groups, group 0's primary crashing a quarter into the
// measurement window, and the failover driver evacuating probeRange to
// group 1 once the stall threshold passes.
func FigFailoverPoint(env Env, protocol string, shards int) (FailoverPoint, error) {
	if shards < 2 {
		return FailoverPoint{}, fmt.Errorf("harness: failover needs at least 2 shards, have %d", shards)
	}
	d, err := env.deploy(fmt.Sprintf("failover %s S=%d", protocol, shards),
		protocol, shards, failoverClientsPerShard, nil, func(c *sim.Config) {
			c.Engine.ViewChangeTimeout = failoverViewChangeTimeout
			// Failure recovery is resend-driven: shrink the client
			// re-broadcast so a dead primary is suspected within the window.
			c.ClientRetry = failoverClientRetry
		})
	if err != nil {
		return FailoverPoint{}, err
	}
	drv := d.AttachHandoffDriver(sim.HandoffConfig{
		From:               0,
		To:                 1,
		Range:              probeRange,
		HostSeqCommitPoint: d.spec.hostSeq,
		DetectAfter:        failoverDetectAfter,
	})
	per, _ := d.run() // a crashed primary is not a clean run: its alerts are the point
	p := FailoverPoint{
		Protocol:        protocol,
		Shards:          shards,
		Fo:              drv.Results(),
		Census:          drv.Census(),
		WriteThroughput: Aggregate(per).Throughput,
	}
	for _, r := range per {
		p.ViewChanges += r.ViewChanges
	}
	return p, errors.Join(drv.Err(), p.Census.Check())
}

// failoverRow contrasts a mid-workload primary failure under FlexiBFT vs
// MinBFT at each shard count: the probe outage until the election serves
// again, the full probe-population recovery, the evacuation window
// (freeze → attested flip), the one-attested-access-per-placement-change
// accounting, and the zero-lost / zero-doubly-owned key census.
func failoverRow() Experiment {
	return Experiment{Name: "failover",
		Desc:      "per-shard failover: primary crash mid-workload, health-driven evacuation as an attested placement change, FlexiBFT vs MinBFT",
		Protocols: []string{"Flexi-BFT", "MinBFT"}, Axis: []int{4}, Shards: true, MaxScale: failoverMaxScale,
		title: fmt.Sprintf("Per-shard failover (shared kernel): group 0's primary crashes mid-workload, stalled range evacuates to group 1, %d probe writers, %d clients/shard, f=%d",
			sim.HandoffProbes, failoverClientsPerShard, kernelF),
		columns: fmt.Sprintf("%-10s %-7s %10s %12s %12s %7s %6s %8s %8s %6s %12s",
			"protocol", "shards", "outage", "recovered", "evac window", "moved", "views", "retries", "tc acc", "census", "post lat"),
		footer: "outage = crash → first probe served again; recovered = crash → every probe lane serving; evac window = freeze submitted → attested flip; tc acc = attested accesses per placement change (must be 1); census audits acked keys for exactly-one-owner (n/a: the run ended before the decision reached both groups)",
		point: func(env Env, proto string, s, _ int, _ Point) (Point, error) {
			p, err := FigFailoverPoint(env, proto, s)
			r := p.Fo
			return Point{
				Line: fmt.Sprintf("%-10s %-7d %10v %12v %12v %7d %6d %8d %8d %6s %12v",
					proto, s, r.UnavailableFor.Round(10*time.Microsecond),
					r.RecoveredAllAt.Round(10*time.Microsecond), r.MigrationWindow.Round(10*time.Microsecond),
					r.MovedRecords, r.ViewChanges, r.ProbeRetries, r.TCAccesses,
					censusCell(p.Census), r.PostMeanLat.Round(10*time.Microsecond)),
				Entry: BenchEntry{Experiment: "failover", Protocol: proto, Shards: s,
					Throughput: p.WriteThroughput, Completed: r.PreCompleted + r.DipCompleted + r.PostCompleted,
					AttestedAccesses: r.TCAccesses, UnavailableForNs: r.UnavailableFor.Nanoseconds()},
			}, err
		},
		check: onePlacementAccess}
}
