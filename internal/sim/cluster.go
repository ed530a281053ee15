package sim

import (
	"fmt"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// Config assembles one simulated consensus group (a full cluster when run
// alone, one tenant when co-hosted on a MultiCluster).
type Config struct {
	N, F int
	// Engine is the protocol-level configuration (batching, parallelism,
	// checkpoint interval, timeouts).
	Engine engine.Config
	// NewProtocol constructs the protocol instance for each replica.
	NewProtocol func(id types.ReplicaID, cfg engine.Config) engine.Protocol
	// Replies is the protocol's fast reply quorum (f+1 when unset); the
	// client's slow path follows from it (engine.Replies).
	Replies int
	// ClientRetry is the ceiling of the client's resend backoff, whose
	// first complaint goes out after ClientRetry/8 (default 16 s: 2 s).
	ClientRetry time.Duration
	// Cost is the CPU cost model; Topo the network topology. In a
	// MultiCluster, the machine-level parts (Workers, TCStreamHandoff)
	// come from the first group's model.
	Cost CostModel
	Topo *Topology
	// TrustedProfile picks the trusted hardware class; KeepLog stores
	// appended digests (trusted-log protocols).
	TrustedProfile trusted.Profile
	KeepLog        bool
	// Clients is the number of closed-loop clients; Workload their op mix.
	Clients  int
	Workload workload.Config
	// Seed drives the group's simulator randomness (workload keys,
	// jitter). Co-hosted groups should each get an independent stream —
	// see SubSeed.
	Seed int64
	// Trace enables per-replica debug logging.
	Trace bool
	// Obs, when non-nil, observes the deployment (see MultiConfig.Obs).
	Obs *obs.Observer
}

// Results summarizes one group's measurement window.
type Results struct {
	Throughput float64 // committed transactions per second
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	Completed  uint64
	Events     uint64
	Resends    uint64
	CertsSent  uint64
	// FinalView / ViewChanges report the group's consensus view position at
	// the end of the run (highest over its live replicas): nonzero view
	// changes mean the group lost a primary mid-run.
	FinalView   types.View
	ViewChanges uint64
	// Truncated reports that the collector dropped latency samples past its
	// cap: MeanLat/P50Lat/P99Lat are estimates over the retained samples.
	Truncated bool
	// LeaseReads counts reads the leased fast path served inside the
	// measurement window; LeaseFallbacks counts fast-path attempts over the
	// whole run that fell back to consensus (lease missing, refused, stale
	// binding, sweep) — a health signal, not a rate. LeaseReadP50 is the
	// median latency over the leased reads alone (0 when none were served).
	// All zero when Engine.ReadLease is off.
	LeaseReads     uint64
	LeaseFallbacks uint64
	LeaseReadP50   time.Duration
}

// String renders a result row.
func (r Results) String() string {
	return fmt.Sprintf("tput=%9.0f txn/s  lat(mean/p50/p99)=%v/%v/%v  done=%d  events=%d",
		r.Throughput, r.MeanLat.Round(10*time.Microsecond), r.P50Lat.Round(10*time.Microsecond),
		r.P99Lat.Round(10*time.Microsecond), r.Completed, r.Events)
}

// linkRule is an injected network condition between node pairs.
type linkRule struct {
	from, to int // -1 matches any
	extra    time.Duration
	drop     bool
	until    time.Duration // 0 = forever
	match    func(types.Message) bool
}

// Cluster is a fully assembled single-group simulated deployment: n
// replicas plus a client pool, driven in virtual time. It is a thin S=1
// wrapper over the multi-group core (MultiCluster) — the group runs alone
// on its machines, so nothing contends with it and the behavior of the
// historical single-kernel simulator is preserved exactly.
type Cluster struct {
	mc *MultiCluster
	g  *group
}

// jitterMax bounds the per-message network jitter. Real networks and OS
// schedulers impose tens of microseconds of variance per message; without
// it, closed-loop clients synchronize into artificial thundering-herd waves
// that no real deployment exhibits. The jitter is drawn from the group's
// seeded RNG, so runs stay fully deterministic.
const jitterMax = 100 * time.Microsecond

// NewCluster builds the cluster; protocols are initialized immediately.
func NewCluster(cfg Config) *Cluster {
	mc := NewMultiCluster(MultiConfig{Seed: cfg.Seed, Groups: []Config{cfg}, Obs: cfg.Obs})
	return &Cluster{mc: mc, g: mc.groups[0]}
}

// DelayLink adds `extra` latency to messages from node i to node j (use -1
// as a wildcard); until==0 means for the whole run. match optionally
// restricts the rule to particular messages.
func (c *Cluster) DelayLink(i, j int, extra time.Duration, until time.Duration, match func(types.Message) bool) {
	c.g.rules = append(c.g.rules, linkRule{from: i, to: j, extra: extra, until: until, match: match})
}

// DropLink discards messages from node i to node j (wildcards as above).
func (c *Cluster) DropLink(i, j int, until time.Duration, match func(types.Message) bool) {
	c.g.rules = append(c.g.rules, linkRule{from: i, to: j, drop: true, until: until, match: match})
}

// Crash stops replica r at virtual time at: it no longer processes or sends
// anything (fail-stop).
func (c *Cluster) Crash(r types.ReplicaID, at time.Duration) {
	c.g.scheduleFunc(at, func() { c.g.replicas[r].crashed = true })
}

// SetSendFilter installs a byzantine outbound filter on replica r: return
// false to silently withhold a message. Node index cfg.N is the client pool.
func (c *Cluster) SetSendFilter(r types.ReplicaID, filter func(to int, m types.Message) bool) {
	c.g.replicas[r].sendFilter = filter
}

// SetStaleServe marks replica r byzantine for the read-lease fast path (see
// engine.Host.SetStaleServe): it keeps answering leased reads after
// revocation or expiry, from the last binding it ever held and ignoring the
// client's fence. Client-side lease checks are what must keep such a replica
// from serving a stale read.
func (c *Cluster) SetStaleServe(r types.ReplicaID, on bool) {
	c.g.replicas[r].SetStaleServe(on)
}

// LeaseState reports replica r's lease tracker position (last granted epoch
// and whether it is still active) — white-box surface for revocation tests.
func (c *Cluster) LeaseState(r types.ReplicaID) (epoch uint64, active bool) {
	return c.g.replicas[r].LeaseState()
}

// At schedules fn at virtual time at (attack scripts, load changes).
func (c *Cluster) At(at time.Duration, fn func()) { c.g.scheduleFunc(at, fn) }

// Replica exposes a replica's trusted component and protocol for attack
// scripts and white-box tests. The component is the replica's machine's
// (co-hosted replicas share it behind counter namespaces).
func (c *Cluster) Replica(r types.ReplicaID) (trusted.Component, engine.Protocol) {
	return c.g.replicas[r].TrustedComponent(), c.g.replicas[r].Protocol()
}

// StateDigestOf returns replica r's current state-machine digest (safety
// checks compare these across replicas).
func (c *Cluster) StateDigestOf(r types.ReplicaID) types.Digest {
	return c.g.replicas[r].StateDigest()
}

// InjectRequest sends a single client request to replica `to` at time at,
// bypassing the closed-loop pool (attack demos drive individual requests).
func (c *Cluster) InjectRequest(at time.Duration, to types.ReplicaID, req *types.ClientRequest) {
	c.g.scheduleFunc(at, func() {
		c.g.scheduleMessage(c.mc.now+c.g.cfg.Topo.ClientLink(int(to)), c.g.poolIdx(), int(to), req)
	})
}

// Run executes the experiment: clients ramp in over the first tenth of
// warmup, the measurement window is [warmup, warmup+measure), and the run
// stops at the window's end (the paper's warmup/cooldown trimming).
func (c *Cluster) Run(warmup, measure time.Duration) Results {
	res := c.mc.Run(warmup, measure)[0]
	res.Events = c.mc.events // kernel-wide count, as the single-kernel sim reported
	return res
}

// RunUntil advances virtual time to t without touching the measurement
// window (attack scripts that need fine-grained control).
func (c *Cluster) RunUntil(t time.Duration) { c.mc.runUntil(t) }

// Now returns current virtual time.
func (c *Cluster) Now() time.Duration { return c.mc.now }
