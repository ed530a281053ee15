package harness

import (
	"fmt"
	"strings"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/shard"
	"flexitrust/internal/sim"
)

// Cross-shard transaction experiment: S co-located consensus groups under
// background single-shard write load, plus a pool of closed-loop 2PC
// coordinators whose commit point is one attested counter access on a
// co-located machine's trusted component (sim.TxnDriver). The sweep varies
// the fraction of transactions that span two shards and contrasts the
// FlexiTrust commit-point discipline (namespaced AppendF: decision accesses
// interleave freely with the groups' counters) against the MinBFT one
// (host-sequenced: every decision retargets the machine's single attested
// stream, paying and causing drain handoffs). Everything is measured on the
// shared kernel — the coordinator's counter contends with the co-hosted
// groups because they literally share a timeline, not because a model says
// so.

// txnScalingF keeps the per-group clusters small (the sharded low-f
// regime, matching the shard-scaling experiment).
const txnScalingF = 2

// txnScalingClientsPerShard is the background single-shard write load: low
// enough to leave CPU headroom (the contrast under test is the trusted
// component, not CPU division), high enough that the groups' pipelines are
// warm and the write-latency baseline is meaningful.
const txnScalingClientsPerShard = 64

// txnScalingCoordinators is the closed-loop 2PC client count.
const txnScalingCoordinators = 24

// txnScalingWorkers provisions each co-location machine's worker pool
// (same testbed class as the shard-scaling experiment).
const txnScalingWorkers = 8

// TxnPoint is one measured (protocol, shard count, multi-shard fraction)
// configuration.
type TxnPoint struct {
	Protocol string
	Shards   int
	// Fraction is the configured multi-shard transaction fraction.
	Fraction float64
	// Txn summarizes the 2PC coordinators (latency to the attested
	// decision point).
	Txn sim.TxnResults
	// WriteThroughput / WriteMeanLat summarize the background single-shard
	// write load across all groups — the baseline cross-shard transactions
	// are compared against.
	WriteThroughput float64
	WriteMeanLat    time.Duration
}

// LatencyRatio is the headline number: mean transaction latency over mean
// single-shard write latency.
func (p TxnPoint) LatencyRatio() float64 {
	if p.WriteMeanLat <= 0 {
		return 0
	}
	return float64(p.Txn.MeanLat) / float64(p.WriteMeanLat)
}

// TxnScalingPoint measures one configuration on the shared kernel: S
// groups (namespaces 1..S, sub-seeded like the shard-scaling experiment)
// plus the transaction driver.
func TxnScalingPoint(protocol string, shards int, fraction float64, scale Scale) (TxnPoint, error) {
	spec, err := ByName(protocol)
	if err != nil {
		return TxnPoint{}, err
	}
	opts := DefaultOptions()
	opts.F = txnScalingF
	opts.Clients = txnScalingClientsPerShard
	opts.Cost = sim.DefaultCostModel()
	opts.Cost.Workers = txnScalingWorkers
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
	dump := beginObsRun(fmt.Sprintf("txn %s S=%d mix=%.0f%%", protocol, shards, fraction*100))
	mc := sim.NewMultiCluster(sim.MultiConfig{Seed: master, Groups: groups, Obs: dump.observer()})
	d := mc.AttachTxnDriver(sim.TxnDriverConfig{
		Coordinators:       txnScalingCoordinators,
		MultiShardFraction: fraction,
		HostSeqCommitPoint: spec.hostSeq,
		Seed:               sim.SubSeed(master, 1<<20),
	})
	per := mc.Run(opts.Warmup, opts.Measure)
	dump.finish()
	agg := shard.Aggregate(per)
	return TxnPoint{
		Protocol:        protocol,
		Shards:          shards,
		Fraction:        fraction,
		Txn:             d.Results(opts.Measure),
		WriteThroughput: agg.Throughput,
		WriteMeanLat:    agg.MeanLat,
	}, nil
}

// FigTxnScaling sweeps the multi-shard transaction fraction for FlexiBFT
// vs MinBFT at each shard count: FlexiTrust's commit point rides the
// shared component for the cost of one interleaved access, so transaction
// latency stays near two write latencies (one consensus round of prepares
// plus the decision); MinBFT's host-sequenced decisions time-share each
// machine's attested stream with the co-hosted groups and degrade as the
// cross-shard mix grows.
func FigTxnScaling(shardCounts []int, scale Scale) string {
	if len(shardCounts) == 0 {
		shardCounts = []int{4}
	}
	fractions := []float64{0, 0.1, 0.2, 0.5}
	var b strings.Builder
	fmt.Fprintf(&b, "== Cross-shard txn scaling (shared kernel): %d background clients/shard, %d 2PC coordinators, f=%d ==\n",
		txnScalingClientsPerShard, txnScalingCoordinators, txnScalingF)
	fmt.Fprintf(&b, "%-10s %-7s %-6s %12s %12s %12s %12s %7s %9s\n",
		"protocol", "shards", "mix", "txn(txn/s)", "txn lat", "write lat", "lat ratio", "aborts", "acc/dec")
	for _, name := range []string{"Flexi-BFT", "MinBFT"} {
		for _, s := range shardCounts {
			for _, f := range fractions {
				p, err := TxnScalingPoint(name, s, f, scale)
				if err != nil {
					continue
				}
				accPerDec := 0.0
				if p.Txn.Decisions > 0 {
					accPerDec = float64(p.Txn.TCAccesses) / float64(p.Txn.Decisions)
				}
				fmt.Fprintf(&b, "%-10s %-7d %-6s %12.0f %12v %12v %11.2fx %7d %9.2f\n",
					name, s, fmt.Sprintf("%.0f%%", f*100), p.Txn.Throughput,
					p.Txn.MeanLat.Round(10*time.Microsecond),
					p.WriteMeanLat.Round(10*time.Microsecond),
					p.LatencyRatio(), p.Txn.Aborted, accPerDec)
			}
		}
	}
	return b.String()
}
