package harness

import (
	"fmt"
	"strings"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/shard"
	"flexitrust/internal/sim"
)

// Mid-failure availability experiment: S co-located consensus groups under
// background write load; at a configured virtual time group 0's primary
// fail-stops, and after the (simulated) health monitor's stall threshold
// the failover driver evacuates group 0's probe range to group 1 as an
// attested placement change (sim.FailoverDriver). "Vivisecting the
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

// failoverF / clients / workers match the rebalance experiment's
// co-location testbed class.
const (
	failoverF               = 2
	failoverClientsPerShard = 192
	failoverWorkers         = 8
	failoverProbes          = 8
	// failoverViewChangeTimeout / failoverClientRetry shrink the recovery
	// timeouts so an election fits a quick-scale measurement window; both
	// protocols run the same values, so the contrast stays apples to
	// apples.
	failoverViewChangeTimeout = 8 * time.Millisecond
	failoverClientRetry       = 12 * time.Millisecond
	failoverDetectAfter       = 6 * time.Millisecond
)

// failoverRange is the evacuated hash interval (the bottom 1/16 of the
// hash space, like the rebalance experiment).
var failoverRange = kvstore.HashRange{Start: 0, End: 1<<60 - 1}

// FailoverPoint is one measured (protocol, shard count) primary-failure
// run.
type FailoverPoint struct {
	Protocol string
	Shards   int
	// Fo summarizes the crash, the election, the evacuation and the probes.
	Fo sim.FailoverResults
	// Census audits every acknowledged probe key for exactly-one-owner.
	Census sim.FailoverCensus
	// WriteThroughput summarizes the background write load across all
	// groups; ViewChanges sums installed views across them (only the
	// victim group should elect).
	WriteThroughput float64
	ViewChanges     uint64
}

// FigFailoverPoint runs one mid-workload primary failure on the shared
// kernel: S groups (namespaces 1..S, sub-seeded like the other shard
// experiments), group 0's primary crashing a quarter into the measurement
// window, and the failover driver evacuating failoverRange to group 1 once
// the stall threshold passes.
func FigFailoverPoint(protocol string, shards int, scale Scale) (FailoverPoint, error) {
	if shards < 2 {
		return FailoverPoint{}, fmt.Errorf("harness: failover needs at least 2 shards, have %d", shards)
	}
	spec, err := ByName(protocol)
	if err != nil {
		return FailoverPoint{}, err
	}
	opts := DefaultOptions()
	opts.F = failoverF
	opts.Clients = failoverClientsPerShard
	opts.Cost = sim.DefaultCostModel()
	opts.Cost.Workers = failoverWorkers
	scale.apply(&opts)
	master := opts.Seed
	groups := make([]sim.Config, shards)
	for g := 0; g < shards; g++ {
		g := g
		o := opts
		o.Seed = sim.SubSeed(master, g)
		o.EngineTweak = func(cfg *engine.Config) {
			cfg.TrustedNamespace = uint16(g + 1)
			cfg.ViewChangeTimeout = failoverViewChangeTimeout
		}
		groups[g] = GroupConfig(spec, o)
		// Failure recovery is resend-driven: shrink the client re-broadcast
		// so a dead primary is suspected within the window.
		groups[g].Policy.RetryTimeout = failoverClientRetry
	}
	dump := beginObsRun(fmt.Sprintf("failover %s S=%d", protocol, shards))
	mc := sim.NewMultiCluster(sim.MultiConfig{Seed: master, Groups: groups, Obs: dump.observer()})
	d := mc.AttachFailoverDriver(sim.FailoverDriverConfig{
		Group:              0,
		To:                 1,
		Range:              failoverRange,
		DetectAfter:        failoverDetectAfter,
		Probes:             failoverProbes,
		HostSeqCommitPoint: spec.hostSeq,
		Seed:               sim.SubSeed(master, 1<<22),
	})
	per := mc.Run(opts.Warmup, opts.Measure)
	dump.finish()
	agg := shard.Aggregate(per)
	p := FailoverPoint{
		Protocol:        protocol,
		Shards:          shards,
		Fo:              d.Results(),
		Census:          d.Census(),
		WriteThroughput: agg.Throughput,
	}
	for _, r := range per {
		p.ViewChanges += r.ViewChanges
	}
	return p, nil
}

// FigFailover contrasts a mid-workload primary failure under FlexiBFT vs
// MinBFT at each shard count: the probe outage until the election serves
// again, the full probe-population recovery, the evacuation window
// (freeze → attested flip), the one-attested-access-per-placement-change
// accounting, and the zero-lost / zero-doubly-owned key census.
func FigFailover(shardCounts []int, scale Scale) string {
	if len(shardCounts) == 0 {
		shardCounts = []int{4}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Per-shard failover (shared kernel): group 0's primary crashes mid-workload, stalled range evacuates to group 1, %d probe writers, %d clients/shard, f=%d ==\n",
		failoverProbes, failoverClientsPerShard, failoverF)
	fmt.Fprintf(&b, "%-10s %-7s %10s %12s %12s %7s %6s %8s %8s %6s %12s\n",
		"protocol", "shards", "outage", "recovered", "evac window", "moved", "views", "retries", "tc acc", "census", "post lat")
	for _, name := range []string{"Flexi-BFT", "MinBFT"} {
		for _, s := range shardCounts {
			if s < 2 {
				continue
			}
			p, err := FigFailoverPoint(name, s, scale)
			if err != nil {
				continue
			}
			evac := time.Duration(0)
			if p.Fo.FlipAt > p.Fo.EvacStartAt {
				evac = p.Fo.FlipAt - p.Fo.EvacStartAt
			}
			census := "ok"
			switch {
			case p.Census.DriveIncomplete:
				census = "n/a" // drive still pending at window end
			case p.Census.Lost != 0 || p.Census.DoublyOwned != 0:
				census = fmt.Sprintf("L%d/D%d", p.Census.Lost, p.Census.DoublyOwned)
			}
			fmt.Fprintf(&b, "%-10s %-7d %10v %12v %12v %7d %6d %8d %8d %6s %12v\n",
				name, s, p.Fo.UnavailableFor.Round(10*time.Microsecond),
				p.Fo.RecoveredAllAt.Round(10*time.Microsecond), evac.Round(10*time.Microsecond),
				p.Fo.MovedRecords, p.Fo.ViewChanges, p.Fo.ProbeRetries, p.Fo.TCAccesses,
				census, p.Fo.PostMeanLat.Round(10*time.Microsecond))
		}
	}
	b.WriteString("outage = crash → first probe served again; recovered = crash → every probe lane serving; evac window = freeze submitted → attested flip; tc acc = attested accesses per placement change (must be 1); census audits acked keys for exactly-one-owner (n/a: the run ended before the decision reached both groups)\n")
	return b.String()
}
