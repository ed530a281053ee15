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

// Live-rebalancing experiment: S co-located consensus groups under
// background single-shard write load, plus a rebalance driver that migrates
// one hash range from group 0 to group 1 mid-measurement inside the shared
// kernel (sim.RebalanceDriver). The driver's probe writers — closed-loop
// clients whose keys hash into the migrating range — surface the
// availability dip (writes refused between freeze and flip, retried until
// the flip lands) and the steady-state recovery after the handoff. The
// contrast under test is the commit-point discipline again: FlexiTrust
// flips ownership with one freely-interleaving attested access while its
// groups keep committing, whereas MinBFT's host-sequenced component both
// slows the handoff's consensus rounds (freeze, install chunks, decisions
// all ride ordinary consensus) and taxes the flip access with stream
// drains, stretching the window during which the range is unavailable.

// rebalanceF / clients / workers match the transaction experiment's
// co-location testbed class.
const (
	rebalanceF               = 2
	rebalanceClientsPerShard = 64
	rebalanceWorkers         = 8
	rebalanceProbes          = 8
)

// rebalanceRange is the migrated hash interval: the bottom 1/16 of the
// hash space, so the export stays a few chunks at smoke scales while still
// moving real records.
var rebalanceRange = kvstore.HashRange{Start: 0, End: 1<<60 - 1}

// RebalancePoint is one measured (protocol, shard count) migration run.
type RebalancePoint struct {
	Protocol string
	Shards   int
	// Reb summarizes the handoff and its probes.
	Reb sim.RebalanceResults
	// WriteThroughput / WriteMeanLat summarize the background single-shard
	// write load across all groups.
	WriteThroughput float64
	WriteMeanLat    time.Duration
}

// FigRebalancePoint runs one mid-workload migration on the shared kernel: S
// groups (namespaces 1..S, sub-seeded like the other shard experiments)
// plus the rebalance driver moving rebalanceRange from group 0 to group 1 a
// third into the measurement window.
func FigRebalancePoint(protocol string, shards int, scale Scale) (RebalancePoint, error) {
	if shards < 2 {
		return RebalancePoint{}, fmt.Errorf("harness: rebalancing needs at least 2 shards, have %d", shards)
	}
	spec, err := ByName(protocol)
	if err != nil {
		return RebalancePoint{}, err
	}
	opts := DefaultOptions()
	opts.F = rebalanceF
	opts.Clients = rebalanceClientsPerShard
	opts.Cost = sim.DefaultCostModel()
	opts.Cost.Workers = rebalanceWorkers
	scale.apply(&opts)
	master := opts.Seed
	groups := make([]sim.Config, shards)
	for g := 0; g < shards; g++ {
		g := g
		o := opts
		o.Seed = sim.SubSeed(master, g)
		o.EngineTweak = func(cfg *engine.Config) {
			cfg.TrustedNamespace = uint16(g + 1)
		}
		groups[g] = GroupConfig(spec, o)
	}
	dump := beginObsRun(fmt.Sprintf("rebalance %s S=%d", protocol, shards))
	mc := sim.NewMultiCluster(sim.MultiConfig{Seed: master, Groups: groups, Obs: dump.observer()})
	d := mc.AttachRebalanceDriver(sim.RebalanceDriverConfig{
		From:               0,
		To:                 1,
		Range:              rebalanceRange,
		Probes:             rebalanceProbes,
		HostSeqCommitPoint: spec.hostSeq,
		Seed:               sim.SubSeed(master, 1<<21),
	})
	per := mc.Run(opts.Warmup, opts.Measure)
	dump.finish()
	agg := shard.Aggregate(per)
	return RebalancePoint{
		Protocol:        protocol,
		Shards:          shards,
		Reb:             d.Results(),
		WriteThroughput: agg.Throughput,
		WriteMeanLat:    agg.MeanLat,
	}, nil
}

// FigRebalance contrasts a mid-workload range migration under FlexiBFT vs
// MinBFT at each shard count: the migration window (freeze → attested
// flip), the probe availability dip inside it, the steady-state recovery
// after it, and the one-attested-access-per-placement-change accounting.
func FigRebalance(shardCounts []int, scale Scale) string {
	if len(shardCounts) == 0 {
		shardCounts = []int{4}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Live rebalancing (shared kernel): range handoff group 0 → 1 mid-workload, %d probe writers, %d clients/shard, f=%d ==\n",
		rebalanceProbes, rebalanceClientsPerShard, rebalanceF)
	fmt.Fprintf(&b, "%-10s %-7s %10s %7s %7s %12s %12s %9s %8s %8s\n",
		"protocol", "shards", "window", "moved", "chunks", "dip max lat", "post lat", "recovery", "retries", "tc acc")
	for _, name := range []string{"Flexi-BFT", "MinBFT"} {
		for _, s := range shardCounts {
			if s < 2 {
				continue
			}
			p, err := FigRebalancePoint(name, s, scale)
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "%-10s %-7d %10v %7d %7d %12v %12v %8.2fx %8d %8d\n",
				name, s, p.Reb.MigrationWindow.Round(10*time.Microsecond),
				p.Reb.MovedRecords, p.Reb.InstallChunks,
				p.Reb.DipMaxLat.Round(10*time.Microsecond),
				p.Reb.PostMeanLat.Round(10*time.Microsecond),
				p.Reb.Recovery(), p.Reb.ProbeRetries, p.Reb.TCAccesses)
		}
	}
	b.WriteString("recovery = post-flip probe throughput / pre-freeze probe throughput; tc acc = attested accesses per placement change (must be 1)\n")
	return b.String()
}
