// Package harness assembles simulated clusters for each protocol and runs
// the paper's experiments. Every figure and table in the evaluation section,
// and every table of the sharded layer built on it, is one row of the
// experiment table (Experiments); cmd/benchrunner, the BENCH baseline
// matrix (CollectBench) and the root-level benchmarks read the rows.
package harness

import (
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// Spec is one registry row (internal/protocols) in the shape the experiments
// read.
type Spec struct {
	Name string
	Meta engine.Meta
	// New constructs a replica instance.
	New func(cfg engine.Config) engine.Protocol
	// Parallel is the variant's concurrency mode (the o-variants and
	// trust-bft protocols are sequential).
	Parallel bool
	// KeepLog provisions trusted components with attested logs.
	KeepLog bool
	// hostSeq binds co-located commit points to the host-sequenced stream
	// (protocols.Variant.HostSequenced).
	hostSeq bool
}

// specOf reads a Spec off its registry row.
func specOf(v protocols.Variant) Spec {
	return Spec{Name: v.Meta.Name, Meta: v.Meta, New: v.New,
		Parallel: v.Parallel(), KeepLog: v.KeepLog(), hostSeq: v.HostSequenced()}
}

// N returns the replication factor for fault threshold f.
func (s Spec) N(f int) int { return s.Meta.Replicas(f) }

// certTimeout is the client-side wait before falling back to the
// commit-certificate path (speculative protocols).
const certTimeout = 10 * time.Millisecond

// Policy yields the client reply rule: the protocol's ClientReplies matching
// responses and, when that fast path needs all n replicas, a
// commit-certificate slow path over n−f after certTimeout.
func (s Spec) Policy(n, f int) sim.ReplyPolicy {
	p := sim.ReplyPolicy{Fast: s.Meta.ClientReplies(n, f), RetryTimeout: 2 * time.Second}
	if p.Fast == n {
		p.Slow, p.CertAck, p.CertTimeout = n-f, n-f, certTimeout
	}
	return p
}

// Specs returns every protocol variant in the paper's evaluation
// (Section 9.2), in the registry's order.
func Specs() []Spec {
	var specs []Spec
	for _, v := range protocols.All() {
		specs = append(specs, specOf(v))
	}
	return specs
}

// ByName finds a spec, matching names ignoring case and hyphens.
func ByName(name string) (Spec, error) {
	v, err := protocols.Lookup(name)
	return specOf(v), err
}

// Options parameterizes one experiment run.
type Options struct {
	F         int
	Clients   int
	BatchSize int
	Warmup    time.Duration
	Measure   time.Duration
	Topo      *sim.Topology
	Cost      sim.CostModel
	TCProfile trusted.Profile
	Seed      int64
	// Mutate tweaks the cluster before it runs (failure/attack injection).
	Mutate func(c *sim.Cluster)
	// EngineTweak adjusts the engine config after defaults are applied.
	EngineTweak func(cfg *engine.Config)
	// Workload overrides the paper's default YCSB-A mix when non-nil (the
	// read-lease experiment runs read-heavy mixes). The run's seed still
	// comes from Seed, not from the override.
	Workload *workload.Config
}

// DefaultOptions is the paper's standard setup: f=8, 20k clients, batch 100,
// LAN, SGX-enclave counters. Warmup/measure are scaled down from the paper's
// 180s runs — the simulator reaches steady state in well under a second.
func DefaultOptions() Options {
	return Options{
		F:         8,
		Clients:   20000,
		BatchSize: 100,
		Warmup:    500 * time.Millisecond,
		Measure:   1500 * time.Millisecond,
		Cost:      sim.DefaultCostModel(),
		TCProfile: trusted.ProfileSGXEnclave,
		Seed:      1,
	}
}

// GroupConfig builds the sim.Config one consensus group runs under opts —
// the unit both Build (S=1) and the shared-kernel shard experiments
// (sim.MultiCluster) assemble deployments from.
func GroupConfig(spec Spec, opts Options) sim.Config {
	n := spec.N(opts.F)
	ecfg := engine.DefaultConfig(n, opts.F)
	ecfg.BatchSize = opts.BatchSize
	ecfg.Parallel = spec.Parallel
	ecfg.CaptureSnapshots = false // no view changes in measured runs
	ecfg.SkipBatchDigestCheck = true
	if opts.EngineTweak != nil {
		opts.EngineTweak(&ecfg)
	}
	topo := opts.Topo
	if topo == nil {
		topo = sim.LANTopology(n)
	}
	cost := opts.Cost
	if cost.Workers == 0 {
		cost = sim.DefaultCostModel()
	}
	wl := workload.DefaultConfig()
	if opts.Workload != nil {
		wl = *opts.Workload
	}
	wl.Seed = opts.Seed
	return sim.Config{
		N:              n,
		F:              opts.F,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, c engine.Config) engine.Protocol { return spec.New(c) },
		Policy:         spec.Policy(n, opts.F),
		Cost:           cost,
		Topo:           topo,
		TrustedProfile: opts.TCProfile,
		KeepLog:        spec.KeepLog,
		Clients:        opts.Clients,
		Workload:       wl,
		Seed:           opts.Seed,
	}
}

// Build constructs the simulated cluster for spec under opts.
func Build(spec Spec, opts Options) *sim.Cluster {
	cl := sim.NewCluster(GroupConfig(spec, opts))
	if opts.Mutate != nil {
		opts.Mutate(cl)
	}
	return cl
}

// Run builds and runs one experiment.
func Run(spec Spec, opts Options) sim.Results {
	cl := Build(spec, opts)
	return cl.Run(opts.Warmup, opts.Measure)
}
