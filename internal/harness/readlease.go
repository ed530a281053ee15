package harness

import (
	"errors"
	"fmt"
	"time"

	"flexitrust/internal/sim"
	"flexitrust/internal/workload"
)

// Read-lease experiment: the shard-scaling deployment run under a read-heavy
// YCSB-B mix (95/5), once with the leased linearizable read fast path on and
// once with every read pushed through consensus — identical seed, load and
// co-location contention, so the fast path's effect is measured, not
// asserted. With the lease on, single-key reads are answered by each group's
// primary against its committed watermark for the cost of one lookup; the
// write traffic still runs the full protocol, which is what keeps the A/B's
// write path comparable. The row compares the uncontended single-group
// deployment against the 4-way co-located one, on the FlexiTrust flagship
// and the sequential USIG baseline: the lease rides on the engine, so both
// families serve it.

// readLeaseMix is the read fraction of the experiment's workload (YCSB-B).
const readLeaseMix = 0.95

// readLeaseClientsPerShard doubles the shard experiments' standard offered
// load: the consensus read path saturates well below 128 clients/shard, so
// holding the A/B at that load would measure the closed loop, not the fast
// path's capacity. The lease-off run keeps its (already saturated)
// throughput; the lease-on run gets enough concurrency to show its own.
const readLeaseClientsPerShard = 2 * shardScalingClientsPerShard

// ReadLeasePoint measures one (protocol, shards, enable) configuration
// under the read-heavy mix and returns the aggregated cluster-level result
// and the whole-run attested accesses. The run must stay clean: a lease
// grant is one more attested access, not a new alarm class.
func ReadLeasePoint(env Env, protocol string, shards int, enable bool) (sim.Results, uint64, error) {
	wl := workload.ReadHeavy(readLeaseMix)
	return env.plainPoint(fmt.Sprintf("reads %s S=%d lease=%v", protocol, shards, enable),
		protocol, shards, readLeaseClientsPerShard,
		func(o *Options) { o.Workload = &wl },
		func(c *sim.Config) { c.Engine.ReadLease = enable })
}

// readsRow runs the A/B comparison, lease off then on at each shard count,
// with the lease-on speedup and the leased-read median called out.
func readsRow() Experiment {
	return Experiment{Name: "reads",
		Desc:      "leased linearizable reads A/B under a read-heavy mix, lease on vs off at 1 and 4 shards",
		Protocols: []string{"Flexi-BFT", "MinBFT"}, Axis: []int{1, 4}, Shards: true, Inner: []int{0, 1},
		title: fmt.Sprintf("Leased linearizable reads A/B (shared kernel): %.0f%% reads, f=%d, %d clients/shard",
			readLeaseMix*100, kernelF, readLeaseClientsPerShard),
		columns: tableColumns,
		point: func(env Env, proto string, s, lease int, off Point) (Point, error) {
			res, acc, err := ReadLeasePoint(env, proto, s, lease == 1)
			params := fmt.Sprintf("shards=%d lease=off", s)
			if lease == 1 {
				speedup := 0.0
				if off.Result.Throughput > 0 {
					speedup = res.Throughput / off.Result.Throughput
				}
				params = fmt.Sprintf("shards=%d lease=on %.2fx rp50=%v", s, speedup, res.LeaseReadP50.Round(time.Microsecond))
			}
			p := tablePoint(proto, params, res)
			p.Entry = resultEntry("reads", proto, s, res, acc)
			p.Entry.Lease, p.Entry.LeaseReads, p.Entry.LeaseReadP50Ns = lease == 1, res.LeaseReads, res.LeaseReadP50.Nanoseconds()
			return p, err
		},
		check: func(e BenchEntry) error {
			switch {
			case e.Lease && e.LeaseReads == 0:
				return errors.New("lease on but zero leased reads")
			case !e.Lease && e.LeaseReads != 0:
				return fmt.Errorf("lease off but %d leased reads", e.LeaseReads)
			case e.AttestedAccesses == 0:
				return errors.New("zero attested accesses over a full run")
			}
			return nil
		}}
}
