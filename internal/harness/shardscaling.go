package harness

import (
	"fmt"

	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/shard"
	"flexitrust/internal/sim"
)

// Shard-scaling experiment: S consensus groups co-located on one set of
// machines behind internal/shard's keyspace router, per-shard load held
// constant (weak scaling). All S groups run inside ONE discrete-event
// kernel (sim.MultiCluster): machine m hosts one replica of every group
// (rotated so each group's primary lands on a different machine), and the
// co-hosted replicas contend on the machine's worker pool and its trusted
// component's timeline. The paper's dichotomy is therefore measured, not
// asserted: FlexiTrust's once-per-consensus primary-side AppendF counters
// interleave freely in per-group namespaces, while MinBFT/MinZZ's
// host-sequenced USIG streams force co-hosted groups to drain and retarget
// the machine's single attested stream on every alternation (see
// sim.Machine and internal/shard/aggregate.go).

// shardScalingF keeps the per-group clusters small: sharding is the
// low-f/many-groups regime, and the figure's point is the scaling shape,
// not the replication factor.
const shardScalingF = 2

// shardScalingClientsPerShard is the constant per-shard offered load. It is
// deliberately far below a group's CPU saturation point: co-located groups
// share machine CPU, so a saturating per-shard load would measure CPU
// division for every protocol and hide the trusted-component contrast the
// figure is about. The question the experiment asks is "the machines have
// headroom for S groups — does the trusted-component discipline let them
// use it?".
const shardScalingClientsPerShard = 128

// shardScalingWorkers provisions each co-location machine's worker pool
// (the paper's 16-core testbed class, more than the 4-thread consensus
// pipeline of the dedicated-machine figures) — identical for every shard
// count, so the scaling ratios compare like with like.
const shardScalingWorkers = 8

// ShardScalingPoint measures one (protocol, shard count) configuration —
// all groups in one shared kernel — and returns the aggregated
// cluster-level result. Group g runs with trusted-counter namespace g+1 and
// the sub-seed sim.SubSeed derives for it, so adding a group never perturbs
// another group's private randomness.
func ShardScalingPoint(protocol string, shards int, scale Scale) (sim.Results, error) {
	per, err := ShardScalingGroups(protocol, shards, scale)
	if err != nil {
		return sim.Results{}, err
	}
	return shard.Aggregate(per), nil
}

// ShardScalingPointObserved is ShardScalingPoint with an observer attached
// to the shared kernel. Virtual-time throughput is identical either way —
// the observer costs real CPU, not simulated time — so the obs-enabled
// benchmark variant compares wall-clock ns/op against the unobserved
// baseline (acceptance: <5% at default sampling).
func ShardScalingPointObserved(protocol string, shards int, scale Scale, o *obs.Observer) (sim.Results, error) {
	per, err := shardScalingGroupsObserved(protocol, shards, scale, o)
	if err != nil {
		return sim.Results{}, err
	}
	return shard.Aggregate(per), nil
}

// ShardScalingGroups runs the shared-kernel deployment and returns the
// per-group results (group g at index g).
func ShardScalingGroups(protocol string, shards int, scale Scale) ([]sim.Results, error) {
	return shardScalingGroupsObserved(protocol, shards, scale, nil)
}

// shardScalingGroupsObserved is ShardScalingGroups with an optional
// observer attached to the shared kernel (nil = unobserved); the bench
// baseline uses it to count attested accesses through the audit stream.
func shardScalingGroupsObserved(protocol string, shards int, scale Scale, o *obs.Observer) ([]sim.Results, error) {
	return shardScalingGroupsOpts(protocol, shards, scale, o, nil, nil)
}

// shardScalingGroupsOpts is the full-generality core: tweak, when non-nil,
// is composed into every group's engine configuration (after the per-group
// namespace assignment), so experiments toggle engine features without
// forking the deployment logic; optsTweak, when non-nil, adjusts the run
// options after the standard shard-scaling shape is applied — the read-lease
// experiment swaps in its read-heavy workload here.
func shardScalingGroupsOpts(protocol string, shards int, scale Scale,
	o *obs.Observer, tweak func(*engine.Config), optsTweak func(*Options)) ([]sim.Results, error) {
	spec, err := ByName(protocol)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.F = shardScalingF
	opts.Clients = shardScalingClientsPerShard
	opts.Cost = sim.DefaultCostModel()
	opts.Cost.Workers = shardScalingWorkers
	scale.apply(&opts)
	if optsTweak != nil {
		optsTweak(&opts)
	}
	master := opts.Seed
	groups := make([]sim.Config, shards)
	for g := 0; g < shards; g++ {
		g := g
		o := opts
		o.Seed = sim.SubSeed(master, g)
		o.EngineTweak = func(cfg *engine.Config) {
			cfg.TrustedNamespace = uint16(g + 1)
			if tweak != nil {
				tweak(cfg)
			}
		}
		groups[g] = GroupConfig(spec, o)
	}
	var dump *obsRun
	if o == nil {
		// -obs-dump runs get their own observer; explicit observers (the
		// bench baseline's) keep theirs.
		dump = beginObsRun(fmt.Sprintf("shard %s S=%d", protocol, shards))
		o = dump.observer()
	}
	mc := sim.NewMultiCluster(sim.MultiConfig{Seed: master, Groups: groups, Obs: o})
	res := mc.Run(opts.Warmup, opts.Measure)
	dump.finish()
	return res, nil
}

// FigShardScaling sweeps the shard count for the FlexiTrust protocols
// against MinBFT/MinZZ: near-linear aggregate throughput for the former,
// flat for the latter — the parallel-instance property of the paper's
// Section 8 turned into horizontal scale-out, with the co-location
// contention emerging from shared per-machine timelines.
func FigShardScaling(shards []int, scale Scale) *Table {
	if len(shards) == 0 {
		shards = []int{1, 2, 4, 8}
	}
	t := &Table{Title: fmt.Sprintf(
		"Shard scaling (shared kernel): S co-located consensus groups, f=%d, %d clients/shard",
		shardScalingF, shardScalingClientsPerShard)}
	for _, name := range []string{"Flexi-BFT", "Flexi-ZZ", "MinBFT", "MinZZ"} {
		for _, s := range shards {
			res, err := ShardScalingPoint(name, s, scale)
			if err != nil {
				continue
			}
			t.Rows = append(t.Rows, Row{Label: name,
				Params: fmt.Sprintf("shards=%d", s), Result: res})
		}
	}
	return t
}
