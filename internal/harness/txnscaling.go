package harness

import (
	"fmt"
	"time"

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

// txnScalingClientsPerShard is the background single-shard write load: low
// enough to leave CPU headroom (the contrast under test is the trusted
// component, not CPU division), high enough that the groups' pipelines are
// warm and the write-latency baseline is meaningful.
const txnScalingClientsPerShard = 64

// txnScalingCoordinators is the closed-loop 2PC client count.
const txnScalingCoordinators = 24

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
// groups plus the transaction driver.
func TxnScalingPoint(env Env, protocol string, shards int, fraction float64) (TxnPoint, error) {
	d, err := env.deploy(fmt.Sprintf("txn %s S=%d mix=%.0f%%", protocol, shards, fraction*100),
		protocol, shards, txnScalingClientsPerShard, nil, nil)
	if err != nil {
		return TxnPoint{}, err
	}
	drv := d.AttachTxnDriver(sim.TxnDriverConfig{
		Coordinators:       txnScalingCoordinators,
		MultiShardFraction: fraction,
		HostSeqCommitPoint: d.spec.hostSeq,
		Seed:               sim.SubSeed(d.opts.Seed, 1<<20),
	})
	per, err := d.run()
	agg := Aggregate(per)
	return TxnPoint{
		Protocol:        protocol,
		Shards:          shards,
		Fraction:        fraction,
		Txn:             drv.Results(d.opts.Measure),
		WriteThroughput: agg.Throughput,
		WriteMeanLat:    agg.MeanLat,
	}, err
}

// txnRow sweeps the multi-shard transaction fraction for FlexiBFT vs MinBFT
// at each shard count: FlexiTrust's commit point rides the shared component
// for the cost of one interleaved access, so transaction latency stays near
// two write latencies (one consensus round of prepares plus the decision);
// MinBFT's host-sequenced decisions time-share each machine's attested
// stream with the co-hosted groups and degrade as the cross-shard mix grows.
func txnRow() Experiment {
	return Experiment{Name: "txn",
		Desc:      "cross-shard 2PC transactions: attested commit point under co-location, FlexiBFT vs MinBFT",
		Protocols: []string{"Flexi-BFT", "MinBFT"}, Axis: []int{4}, Shards: true, Inner: []int{0, 10, 20, 50},
		title: fmt.Sprintf("Cross-shard txn scaling (shared kernel): %d background clients/shard, %d 2PC coordinators, f=%d",
			txnScalingClientsPerShard, txnScalingCoordinators, kernelF),
		columns: fmt.Sprintf("%-10s %-7s %-6s %12s %12s %12s %12s %7s %9s",
			"protocol", "shards", "mix", "txn(txn/s)", "txn lat", "write lat", "lat ratio", "aborts", "acc/dec"),
		point: func(env Env, proto string, s, pct int, _ Point) (Point, error) {
			f := float64(pct) / 100
			p, err := TxnScalingPoint(env, proto, s, f)
			accPerDec := 0.0
			if p.Txn.Decisions > 0 {
				accPerDec = float64(p.Txn.TCAccesses) / float64(p.Txn.Decisions)
			}
			return Point{
				Line: fmt.Sprintf("%-10s %-7d %-6s %12.0f %12v %12v %11.2fx %7d %9.2f",
					proto, s, fmt.Sprintf("%.0f%%", f*100), p.Txn.Throughput,
					p.Txn.MeanLat.Round(10*time.Microsecond), p.WriteMeanLat.Round(10*time.Microsecond),
					p.LatencyRatio(), p.Txn.Aborted, accPerDec),
				Entry: BenchEntry{Experiment: "txn", Protocol: proto, Shards: s, TxnFraction: f,
					Throughput: p.Txn.Throughput, P50Ns: p.Txn.P50Lat.Nanoseconds(), P99Ns: p.Txn.P99Lat.Nanoseconds(),
					Completed: p.Txn.Completed, AttestedAccesses: p.Txn.TCAccesses, Decisions: p.Txn.Decisions},
			}, err
		},
		check: func(e BenchEntry) error {
			if e.Decisions == 0 || e.AttestedAccesses != e.Decisions {
				return fmt.Errorf("%d attested accesses for %d decisions, want equal and nonzero", e.AttestedAccesses, e.Decisions)
			}
			return nil
		}}
}
