package sim

import (
	"fmt"
	"math/rand"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/txn"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// MultiConfig assembles a multi-tenant simulated deployment: S consensus
// groups co-hosted on one shared set of machines, all driven by one
// discrete-event kernel.
type MultiConfig struct {
	// Groups are the per-group cluster configurations. Machine-level
	// resources — the worker count, the trusted-hardware profile and the
	// stream-handoff cost — are taken from the first group's Cost and
	// TrustedProfile (co-hosted groups share hardware, so per-group
	// values could not differ physically anyway); KeepLog is the OR over
	// groups. Each group keeps its own workload, client pool, reply
	// policy, topology rules and RNG stream, seeded from its own
	// Config.Seed — derive those with SubSeed so adding a group never
	// perturbs another group's private randomness.
	Groups []Config

	// Seed drives deployment-wide identities (per-machine attestation
	// keys). The single-group Cluster wrapper passes its Config.Seed.
	Seed int64

	// Placement maps (group, replica) to a machine index. Nil selects the
	// default co-location: replica i of group g runs on machine (i+g) mod
	// M, where M is the largest group size — every machine hosts one
	// replica of every group and each group's primary lands on a distinct
	// machine (the deployment the paper's parallel-instance argument
	// assumes; stacking every primary on machine 0 would measure CPU
	// skew, not trusted-component discipline).
	Placement func(group, replica int) int

	// Obs, when non-nil, observes the deployment: every machine's trusted
	// component is instrumented (the audit stream sees each attested
	// access), view changes journal through it, and its clock is rebound
	// to the kernel's virtual time so spans and events order by simulated
	// time, not wall time.
	Obs *obs.Observer
}

// MultiCluster is a fully assembled multi-group deployment: S consensus
// groups (each with its own replicas and client pool) time-sharing one set
// of machines under one event heap. Co-location contention — worker-queue
// pressure and trusted-component serialization between co-hosted groups —
// emerges from the shared per-machine timelines.
type MultiCluster struct {
	kernel
	groups    []*group
	machines  []*Machine
	auth      *trusted.HMACAuthority
	placement func(group, replica int) int
	obsv      *obs.Observer
	// txnDriver, when attached, runs cross-group two-phase-commit clients
	// inside the same kernel (see txndriver.go).
	txnDriver *TxnDriver
	// handoff, when attached, runs a live range handoff between two groups
	// inside the same kernel (see handoffdriver.go).
	handoff *HandoffDriver
	// arbs holds, per machine, the decision arbiter the drivers mint
	// through (built at the first decision).
	arbs []txn.Arbiter
}

// group is one consensus group hosted on a MultiCluster: its replicas, its
// client pool, and the group-private simulation state (link rules, jitter
// RNG, per-group event count).
type group struct {
	mc       *MultiCluster
	idx      int
	cfg      Config
	replicas []*replicaNode
	pool     *clientPool
	nodes    []node // group-local index -> node (replicas, then pool)
	rules    []linkRule
	rng      *rand.Rand
	events   uint64
	prices   [engine.NumSteps]time.Duration // cfg.Cost per metered step
}

// SubSeed derives a per-group seed from a deployment master seed: a
// splitmix64 hash of the group index XORed into the master. Giving every
// group an independent stream means adding a group never perturbs another
// group's workload or jitter draws — in placements where groups do not
// share machines, a group's run is bit-identical no matter how many
// neighbours exist.
func SubSeed(master int64, group int) int64 {
	z := uint64(group) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return master ^ int64(z)
}

// normalize applies the same defaults NewCluster always applied.
func normalize(cfg Config) Config {
	if cfg.N == 0 {
		panic("sim: Config.N must be set")
	}
	if cfg.Topo == nil {
		cfg.Topo = LANTopology(cfg.N)
	}
	if cfg.Cost.Workers == 0 {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Workload.Records == 0 {
		cfg.Workload = workload.DefaultConfig()
		cfg.Workload.Seed = cfg.Seed
	}
	if cfg.ClientRetry == 0 {
		cfg.ClientRetry = 16 * time.Second
	}
	return cfg
}

// NewMultiCluster builds the deployment; all groups' protocols are
// initialized immediately.
func NewMultiCluster(mcfg MultiConfig) *MultiCluster {
	if len(mcfg.Groups) == 0 {
		panic("sim: MultiConfig.Groups must not be empty")
	}
	groups := make([]Config, len(mcfg.Groups))
	maxN := 0
	for i, gcfg := range mcfg.Groups {
		groups[i] = normalize(gcfg)
		if groups[i].N > maxN {
			maxN = groups[i].N
		}
	}
	// Co-hosted groups share each machine's trusted component; distinct
	// counter namespaces are what keep their counters from aliasing.
	if len(groups) > 1 {
		used := make(map[uint16]bool, len(groups))
		for i := range groups {
			if ns := groups[i].Engine.TrustedNamespace; ns != 0 {
				if used[ns] {
					panic(fmt.Sprintf("sim: trusted namespace %d assigned to two co-hosted groups", ns))
				}
				used[ns] = true
			}
		}
		next := uint16(1)
		for i := range groups {
			if groups[i].Engine.TrustedNamespace != 0 {
				continue
			}
			for used[next] {
				next++
			}
			groups[i].Engine.TrustedNamespace = next
			used[next] = true
		}
	}
	placement := mcfg.Placement
	if placement == nil {
		placement = func(g, i int) int { return (i + g) % maxN }
	}
	numMachines := 0
	for g := range groups {
		for i := 0; i < groups[g].N; i++ {
			if m := placement(g, i); m >= numMachines {
				numMachines = m + 1
			}
		}
	}
	keepLog := false
	for _, gcfg := range groups {
		keepLog = keepLog || gcfg.KeepLog
	}
	mc := &MultiCluster{
		auth:      trusted.NewHMACAuthority(mcfg.Seed+1, numMachines),
		placement: placement,
	}
	if mcfg.Obs != nil {
		mc.obsv = mcfg.Obs
		// Spans, audit records and journal events timestamp in virtual time.
		mcfg.Obs.SetClock(func() time.Duration { return mc.now })
		for i := range groups {
			if groups[i].Engine.Observer == nil {
				groups[i].Engine.Observer = mcfg.Obs
			}
		}
	}
	hw := groups[0]
	for m := 0; m < numMachines; m++ {
		var tc trusted.Component = trusted.New(trusted.Config{
			Host:     types.ReplicaID(m),
			Profile:  hw.TrustedProfile,
			KeepLog:  keepLog,
			Attestor: mc.auth.For(types.ReplicaID(m)),
		})
		// Instrument below the namespaced views so every co-hosted group's
		// attested accesses land in the audit stream with namespace intact.
		tc = mcfg.Obs.InstrumentTC(tc, "sim-machine")
		mc.machines = append(mc.machines, newMachine(m, hw.Cost.Workers, hw.Cost.TCStreamHandoff, hw.Cost.TCSign, tc))
	}
	for gi, gcfg := range groups {
		mc.groups = append(mc.groups, newGroup(mc, gi, gcfg))
	}
	return mc
}

// newGroup assembles one group's replicas and client pool on mc's machines.
func newGroup(mc *MultiCluster, gi int, cfg Config) *group {
	g := &group{
		mc:     mc,
		idx:    gi,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 2)),
		prices: cfg.Cost.prices(),
	}
	totalNodes := cfg.N + 1
	g.nodes = make([]node, totalNodes)
	for i := 0; i < cfg.N; i++ {
		id := types.ReplicaID(i)
		m := mc.machines[mc.placement(gi, i)]
		rn := &replicaNode{
			g:           g,
			idx:         i,
			m:           m,
			timerGen:    make(map[types.TimerID]uint64),
			lastArrival: make([]time.Duration, totalNodes),
			mPending:    cfg.Engine.Observer.Metrics().Gauge(obs.MVerifyPoolDepth),
		}
		rn.cryptoProv = &simCrypto{node: rn}
		rn.Host = engine.NewHost(engine.HostConfig{
			ID:          id,
			Engine:      cfg.Engine,
			NewProtocol: func(c engine.Config) engine.Protocol { return cfg.NewProtocol(id, c) },
			Records:     cfg.Workload.Records,
			TC:          m.tc,
			Verify:      g.verifyMinted,
		}, rn)
		g.replicas = append(g.replicas, rn)
		g.nodes[i] = rn
	}
	g.pool = newClientPool(g)
	g.nodes[cfg.N] = g.pool
	for _, rn := range g.replicas {
		rn.Protocol().Init(rn)
	}
	return g
}

// Groups returns the number of co-hosted consensus groups.
func (mc *MultiCluster) Groups() int { return len(mc.groups) }

// Observe returns the deployment's observer (nil when none was attached).
func (mc *MultiCluster) Observe() *obs.Observer { return mc.obsv }

// Machines returns the number of simulated machines.
func (mc *MultiCluster) Machines() int { return len(mc.machines) }

// Machine exposes machine i (contention accounting, white-box tests).
func (mc *MultiCluster) Machine(i int) *Machine { return mc.machines[i] }

// CrashReplica fail-stops replica r of group g at virtual time `at`: it no
// longer processes or sends anything. Only the one logical replica crashes;
// co-hosted replicas of other groups on the same machine keep running (a
// process failure, not a machine failure).
func (mc *MultiCluster) CrashReplica(g int, r types.ReplicaID, at time.Duration) {
	grp := mc.groups[g]
	grp.scheduleFunc(at, func() { grp.replicas[r].crashed = true })
}

// RecoverReplica un-crashes replica r of group g at virtual time `at`: the
// replica resumes with its pre-crash protocol and store state intact
// (fail-recover with stable storage). Timers that fired while it was down
// were dropped, so a recovered replica reacts to inbound traffic, not to
// its own stale alarms.
func (mc *MultiCluster) RecoverReplica(g int, r types.ReplicaID, at time.Duration) {
	grp := mc.groups[g]
	grp.scheduleFunc(at, func() { grp.replicas[r].crashed = false })
}

// arbiters returns each machine's decision arbiter: the coordinator
// namespace of the machine's trusted component, auditing every decision it
// mints through the deployment's observer.
func (mc *MultiCluster) arbiters() []txn.Arbiter {
	if mc.arbs == nil {
		for _, m := range mc.machines {
			mc.arbs = append(mc.arbs, txn.Arbiter{
				TC: trusted.Namespaced(m.tc, txn.CoordinatorNamespace), Q: txn.DecisionCounter, Obs: mc.obsv})
		}
		mc.obsv.Audit().RegisterDecisionNamespace(txn.CoordinatorNamespace)
	}
	return mc.arbs
}

// Now returns current virtual time.
func (mc *MultiCluster) Now() time.Duration { return mc.now }

// Run executes the experiment on every group at once: each group's clients
// ramp in over the first tenth of warmup, the measurement window is
// [warmup, warmup+measure), and the run stops at the window's end. The
// returned slice holds group g's results at index g; Events counts the
// events attributed to that group alone.
func (mc *MultiCluster) Run(warmup, measure time.Duration) []Results {
	ramp := warmup / 10
	if ramp <= 0 {
		ramp = time.Millisecond
	}
	for _, g := range mc.groups {
		// A clientless pool still starts when an external driver is
		// attached: external requests lean on the pool's resend sweep.
		if g.cfg.Clients > 0 || mc.txnDriver != nil || mc.handoff != nil {
			g.pool.start(ramp)
		}
		g.pool.collector.setWindow(warmup, warmup+measure)
		g.pool.leaseCol.setWindow(warmup, warmup+measure)
	}
	if mc.txnDriver != nil {
		mc.txnDriver.start(ramp)
		mc.txnDriver.collector.setWindow(warmup, warmup+measure)
	}
	if mc.handoff != nil {
		mc.handoff.start(ramp, warmup, measure)
	}
	mc.runUntil(warmup + measure)
	out := make([]Results, len(mc.groups))
	for i, g := range mc.groups {
		out[i] = g.results(measure)
	}
	return out
}

// results summarizes the group's measurement window.
func (g *group) results(measure time.Duration) Results {
	col := g.pool.collector
	view, vcs := g.viewStats()
	return Results{
		Throughput:  col.throughput(measure),
		MeanLat:     col.meanLatency(),
		P50Lat:      col.percentile(50),
		P99Lat:      col.percentile(99),
		Completed:   col.completed(),
		Events:      g.events,
		Resends:     g.pool.core.Resends(),
		CertsSent:   g.pool.core.CertsSent(),
		FinalView:   view,
		ViewChanges: vcs,
		Truncated:   col.truncated,

		LeaseReads:     g.pool.leaseCol.completed(),
		LeaseFallbacks: g.pool.leaseFalls,
		LeaseReadP50:   g.pool.leaseCol.percentile(50),
	}
}

// viewStats probes the group's live replicas for the highest installed
// view and view-change count. The kernel is idle when this runs (between
// events or after the run), so reading protocol state is safe.
func (g *group) viewStats() (view types.View, viewChanges uint64) {
	for _, rn := range g.replicas {
		if rn.crashed {
			continue
		}
		sr, ok := rn.Protocol().(engine.StatusReporter)
		if !ok {
			continue
		}
		st := sr.Status()
		if st.View > view {
			view = st.View
		}
		if st.ViewChanges > viewChanges {
			viewChanges = st.ViewChanges
		}
	}
	return view, viewChanges
}

// --- group-local scheduling and topology helpers ---

// now returns the shared kernel's virtual time.
func (g *group) now() time.Duration { return g.mc.now }

// poolIdx is the client pool's group-local node index.
func (g *group) poolIdx() int { return g.cfg.N }

// machineOf returns the machine hosting the group's replica i.
func (g *group) machineOf(replica int) int { return g.mc.placement(g.idx, replica) }

// verifyMinted checks an attestation's proof, in the form it was minted,
// against the machine-level authority: the machine hosting a replica mints
// its attestations, so the replica identity is mapped to that machine first.
func (g *group) verifyMinted(a *types.Attestation) bool {
	if mi := g.machineOf(int(a.Replica)); mi != int(a.Replica) {
		m := *a
		m.Replica = types.ReplicaID(mi)
		a = &m
	}
	return g.mc.auth.Verify(a)
}

// scheduleMessage enqueues a message arrival at a group-local node.
func (g *group) scheduleMessage(at time.Duration, from, to int, m types.Message) {
	g.mc.schedule(&event{at: at, kind: evMessage, dst: g.nodes[to], grp: g, from: from, msg: m})
}

// scheduleTimer enqueues a timer firing at a group-local node.
func (g *group) scheduleTimer(at time.Duration, nodeIdx int, t types.TimerID, gen uint64) {
	g.mc.schedule(&event{at: at, kind: evTimer, dst: g.nodes[nodeIdx], grp: g, timer: t, tgen: gen})
}

// scheduleFunc enqueues a callback attributed to this group.
func (g *group) scheduleFunc(at time.Duration, fn func()) {
	g.mc.schedule(&event{at: at, kind: evFunc, grp: g, fn: fn})
}

// linkLatency returns the one-way latency from group-local node i to node j
// for message m, applying injected rules; a negative value means "dropped".
func (g *group) linkLatency(i, j int, m types.Message) time.Duration {
	var lat time.Duration
	switch {
	case j == g.poolIdx():
		lat = g.cfg.Topo.ClientLink(i)
	case i == g.poolIdx():
		lat = g.cfg.Topo.ClientLink(j)
	default:
		lat = g.cfg.Topo.ReplicaLink(i, j)
	}
	for _, rule := range g.rules {
		if rule.until != 0 && g.mc.now >= rule.until {
			continue
		}
		if rule.from != -1 && rule.from != i {
			continue
		}
		if rule.to != -1 && rule.to != j {
			continue
		}
		if rule.match != nil && !rule.match(m) {
			continue
		}
		if rule.drop {
			return -1
		}
		lat += rule.extra
	}
	return lat + time.Duration(g.rng.Int63n(int64(jitterMax)))
}
