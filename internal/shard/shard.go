// Package shard composes S independent consensus groups behind one
// epoch-versioned keyspace placement, turning the FlexiTrust property the
// paper proves — consensus instances parallelize because the trusted
// counter is touched once, at the primary — into horizontal scale-out (the
// paper's Section 8 outlook; ByzCoinX-style group composition).
//
// The pieces:
//
//   - PlacementMap assigns explicit hash ranges to groups under a monotone
//     epoch number with a deterministic serialization and digest
//     (placement.go). The epoch-1 map is the uniform split every party
//     derives with no coordination; successor epochs are produced by live
//     rebalancing and installed only after an attested placement decision
//     is published.
//   - Group wraps one full protocol deployment per shard over the existing
//     runtime substrate, with the shard's trusted-counter identifiers
//     confined to a private namespace (trusted.Namespaced) so co-hosted
//     protocol instances can never alias one another's counters.
//   - Session is the client side: it routes by its cached placement epoch.
//     Single-shard operations follow a fast path straight to the owning
//     group; when a store answers WrongShard (the range moved) or
//     RangeMigrating (a handoff is in flight) the session transparently
//     refreshes its placement and retries through the newer epoch.
//     Cross-shard multi-gets are fenced by per-shard commit watermarks and
//     return read-committed values plus the ShardVector version at which
//     each shard was read.
//   - Rebalancing (rebalance.go) moves a hash range between groups as a
//     two-phase handoff — freeze/export on the source, staged install on
//     the destination, ONE attested counter access binding the new
//     placement's digest and epoch as the commit point — reusing the
//     transaction layer's decision log, id space and recovery machinery.
//   - Health (health.go) is the cluster-level view of each group's
//     view-change machinery: the HealthMonitor probes every replica's
//     consensus position and classifies groups Healthy / ViewChanging /
//     Stalled. Sessions route by it — deferring briefly to elections,
//     failing fast (ErrShardDegraded) against stalled groups, reporting
//     degraded shards explicitly in cross-shard reads.
//   - Failover (failover.go) turns a Stalled classification into a
//     placement change: the FailoverOrchestrator evacuates the group's
//     ranges to healthy groups through the rebalancing substrate, each
//     epoch bump bound to one attested access in the first-wins-per-epoch
//     log so concurrent orchestrators can never both re-point a range.
//   - Aggregate metrics merge per-shard throughput and latency into
//     cluster-level numbers (metrics.Merge), including per-group view
//     numbers and view-change counts.
//
// The simulation substrate is served by this package too: Aggregate sums
// the per-group results that one shared discrete-event kernel
// (sim.MultiCluster, driving the shard row of harness.Experiments())
// emits for S co-located groups; co-location contention is the kernel's
// job, not a merge model's (see aggregate.go).
//
// Cross-shard write atomicity is provided by the transaction layer (see
// txn.go here and internal/txn): Session.Txn / Session.MultiPut run
// two-phase commit over the groups with the cluster's attested counter as
// the commit-point arbiter, and MultiGet reports keys blocked by a pending
// transaction intent explicitly.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/metrics"
	"flexitrust/internal/obs"
	"flexitrust/internal/runtime"
	"flexitrust/internal/trusted"
	"flexitrust/internal/txn"
	"flexitrust/internal/types"
)

// Config assembles a sharded cluster: S copies of the Group template, each
// seeded distinctly and namespaced by shard index.
type Config struct {
	// Shards is the number of consensus groups (≥ 1).
	Shards int
	// Group is the per-shard deployment template. Seed and
	// Engine.TrustedNamespace are derived per shard from it: shard s runs
	// with Seed+s*7919 and namespace s+1.
	Group runtime.ClusterConfig
	// Health tunes the per-shard health monitor (stall threshold, probe
	// rate); zero values derive defaults from Group.Engine.ViewChangeTimeout.
	Health HealthConfig
	// Obs, when non-nil, enables cluster-wide observability: request
	// traces through sessions and coordinators, an audit record per
	// attested counter access on every replica and on the coordinator
	// component, and control-plane journal events. Nil disables it.
	Obs *obs.Observer
	// RulesEnabled attaches the SLO alert-rules engine to Obs (requires
	// Obs). The cluster then runs a watch loop every RulesEvery that
	// samples group health and evaluates the rules, so stalls are detected
	// even with no client traffic driving the monitor.
	RulesEnabled bool
	// Rules tunes the engine (zero values take obs defaults). OnAlert and
	// Flight may be pre-set by the caller; the cluster fills Flight itself
	// when FlightDir is set.
	Rules obs.RulesConfig
	// RulesEvery is the watch-loop period (default obs.DefaultEvalEvery).
	RulesEvery time.Duration
	// FlightDir, when set (with RulesEnabled), arms the post-mortem flight
	// recorder: alert firings and dirty stops write a
	// flexitrust-flight/v1 bundle into this directory.
	FlightDir string
}

// Cluster is a running sharded deployment.
type Cluster struct {
	groups []*Group
	mon    *HealthMonitor
	obs    *obs.Observer

	// Operator surface: the exporter renders the observer (plus per-shard
	// stats) for scrapes; the rules engine and flight recorder exist only
	// when Config.RulesEnabled armed them. watchStop ends the health-sample
	// + rules-evaluate loop; stopOnce makes Stop idempotent.
	exporter  *obs.Exporter
	rules     *obs.Rules
	flight    *obs.FlightRecorder
	watchStop chan struct{}
	watchWG   sync.WaitGroup
	stopOnce  sync.Once

	// Placement state: the installed epoch-versioned ownership map plus
	// the proposals in-flight handoffs registered (in-doubt resolution
	// re-derives the map to install from them, checked against the
	// published placement digest).
	placeMu   sync.Mutex
	placement *PlacementMap
	proposals map[uint64]*PlacementMap

	// Read leases (lease.go; leases is nil unless the group template turns
	// ReadLease on): one holder per group that every session reads through.
	// start is the holders' clock origin; leaseCtx/leaseWG bound the renewal
	// goroutines to the cluster's life.
	leases      []*groupLease
	leaseM      leaseMetrics
	start       time.Time
	leaseCtx    context.Context
	leaseCancel context.CancelFunc
	leaseWG     sync.WaitGroup

	// Transaction substrate (see txn.go): the coordinator-side attested
	// counter with its own authority, the decision log, and the id
	// allocator / stability tracker every session (and handoff) shares.
	coordAuth *trusted.HMACAuthority
	arbiter   txn.Arbiter
	txnLog    *txn.AttestationLog
	stability *txn.StabilityTracker
	newTxID   func() uint64
}

// NewCluster boots S consensus groups and the router in front of them.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	// Group s uses namespace s+1; the top namespace is the transaction
	// coordinator's.
	if cfg.Shards >= int(txn.CoordinatorNamespace) {
		return nil, fmt.Errorf("shard: %d shards exceeds the counter namespace space", cfg.Shards)
	}
	c := &Cluster{
		placement: UniformPlacement(cfg.Shards),
		proposals: make(map[uint64]*PlacementMap),
		obs:       cfg.Obs,
		start:     time.Now(),
	}
	c.leaseCtx, c.leaseCancel = context.WithCancel(context.Background())
	seed := cfg.Group.Seed
	if seed == 0 {
		seed = 42
	}
	// The coordinator's trusted component is provisioned like a replica's:
	// its own attestation key under its own authority, its decision counter
	// behind the reserved namespace.
	c.coordAuth = trusted.NewHMACAuthority(seed+31*7919, 1)
	coordTC := trusted.New(trusted.Config{
		Host:     0,
		Profile:  cfg.Group.TrustedProfile,
		Attestor: c.coordAuth.For(0),
	})
	// The observability wrapper sits under the coordinator namespace view
	// (like a replica's) so its audit records carry the coordinator
	// namespace; registering that namespace arms the checker's
	// exactly-one-access-per-decision accounting.
	c.arbiter = txn.Arbiter{
		TC:  trusted.Namespaced(cfg.Obs.InstrumentTC(coordTC, "coordinator"), txn.CoordinatorNamespace),
		Q:   txn.DecisionCounter,
		Obs: cfg.Obs,
	}
	cfg.Obs.Audit().RegisterDecisionNamespace(txn.CoordinatorNamespace)
	c.txnLog = txn.NewLog(txn.VerifierFor(c.coordAuth, txn.CoordinatorNamespace))
	// Transaction and handoff ids share one allocator, so their decisions
	// share the shards' idempotency/poisoning table and one stability
	// watermark governs compaction for both.
	c.stability = txn.NewStabilityTracker(0)
	c.newTxID = c.stability.Allocate
	for s := 0; s < cfg.Shards; s++ {
		gcfg := cfg.Group
		if gcfg.Seed == 0 {
			gcfg.Seed = 42
		}
		gcfg.Seed += int64(s) * 7919
		gcfg.Engine.TrustedNamespace = uint16(s + 1)
		gcfg.Engine.Observer = cfg.Obs
		g, err := newGroup(s, gcfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		c.groups = append(c.groups, g)
	}
	if cfg.Group.Engine.ReadLease {
		// Sessions grant with this duration and stop using a lease a safety
		// margin before the primary does.
		dur := cfg.Group.Engine.LeaseDuration
		if dur <= 0 {
			dur = 100 * time.Millisecond
		}
		margin := cfg.Group.Engine.LeaseSafetyMargin
		if margin < 0 || margin >= dur {
			margin = dur / 10
		}
		c.leaseM = newLeaseMetrics(cfg.Obs.Metrics())
		for s := range c.groups {
			c.leases = append(c.leases, &groupLease{c: c, g: s, h: engine.NewLeaseHolder(cfg.Group.N, dur, margin)})
		}
	}
	c.mon = newHealthMonitor(c, cfg.Health, cfg.Group.Engine.ViewChangeTimeout)
	c.exporter = &obs.Exporter{O: cfg.Obs, Shards: c.shardExports, Healthy: c.healthyNow}
	if cfg.RulesEnabled && cfg.Obs != nil {
		rc := cfg.Rules
		if cfg.FlightDir != "" {
			c.flight = obs.NewFlightRecorder(c.exporter, cfg.FlightDir)
			rc.Flight = c.flight
		}
		c.rules = obs.NewRules(cfg.Obs, rc)
		c.exporter.Rules = c.rules
		every := cfg.RulesEvery
		if every <= 0 {
			every = obs.DefaultEvalEvery
		}
		c.watchStop = make(chan struct{})
		c.watchWG.Add(1)
		go c.watch(every)
	}
	return c, nil
}

// watch is the cluster's detection loop: each tick samples group health
// (so a stalled group is journaled even when no client traffic consults
// the monitor) and evaluates the alert rules over the new window.
func (c *Cluster) watch(every time.Duration) {
	defer c.watchWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.watchStop:
			return
		case <-t.C:
			c.mon.sample(false)
			c.rules.Evaluate()
		}
	}
}

// healthyNow reports whether no group is currently classified Stalled —
// the exporter's /healthz liveness hook.
func (c *Cluster) healthyNow() bool {
	for _, h := range c.mon.sample(false) {
		if h.State == GroupStalled {
			return false
		}
	}
	return true
}

// Exporter returns the cluster's export surface (serve its Handler for
// the admin endpoints).
func (c *Cluster) Exporter() *obs.Exporter { return c.exporter }

// Rules returns the alert-rules engine (nil unless Config.RulesEnabled).
func (c *Cluster) Rules() *obs.Rules { return c.rules }

// Flight returns the flight recorder (nil unless Config.FlightDir armed it).
func (c *Cluster) Flight() *obs.FlightRecorder { return c.flight }

// ObserveSnapshot renders the whole cluster's observability state — the
// observer's four streams, fired alerts, and per-shard consensus stats —
// as one versioned flexitrust-obs/v1 document.
func (c *Cluster) ObserveSnapshot() obs.Export { return c.exporter.Snapshot() }

// shardExports adapts per-group stats (and the groups' metrics collectors'
// truncation accounting) to the export schema.
func (c *Cluster) shardExports() []obs.ShardExport {
	health := c.mon.sample(false)
	out := make([]obs.ShardExport, 0, len(c.groups))
	for i, g := range c.groups {
		st := g.Stats()
		col := g.snapshotCollector()
		se := obs.ShardExport{
			Shard:          st.Shard,
			Submitted:      st.Submitted,
			Committed:      st.Committed,
			Watermark:      uint64(st.Watermark),
			MeanLatNs:      int64(st.MeanLat),
			P99LatNs:       int64(st.P99Lat),
			View:           uint64(st.View),
			ViewChanges:    st.ViewChanges,
			LatencySamples: col.SampledCount(),
			DroppedSamples: col.Dropped(),
			Truncated:      col.Truncated(),
		}
		if i < len(health) {
			se.Health = health[i].State.String()
		}
		out = append(out, se)
	}
	return out
}

// Monitor returns the cluster's per-shard health monitor.
func (c *Cluster) Monitor() *HealthMonitor { return c.mon }

// Observe returns the cluster's observability layer (nil when disabled).
func (c *Cluster) Observe() *obs.Observer { return c.obs }

// Health samples (rate-limited) every group's health classification.
func (c *Cluster) Health() []GroupHealth { return c.mon.sample(false) }

// Shards returns the number of groups.
func (c *Cluster) Shards() int { return len(c.groups) }

// ShardFor maps a key to its owning group index under the current epoch.
func (c *Cluster) ShardFor(key uint64) int { return c.Placement().ShardFor(key) }

// Placement returns the currently installed placement map (immutable; a
// rebalance installs a successor rather than mutating it).
func (c *Cluster) Placement() *PlacementMap {
	c.placeMu.Lock()
	defer c.placeMu.Unlock()
	return c.placement
}

// installPlacement activates a successor map. Epochs are strictly
// monotone: a regression (or a duplicate epoch) is rejected, so a stale or
// replayed flip can never roll ownership back.
func (c *Cluster) installPlacement(pm *PlacementMap) error {
	c.placeMu.Lock()
	defer c.placeMu.Unlock()
	if pm.Epoch() <= c.placement.Epoch() {
		return fmt.Errorf("shard: placement epoch %d does not advance current epoch %d",
			pm.Epoch(), c.placement.Epoch())
	}
	if pm.Groups() != len(c.groups) {
		return fmt.Errorf("shard: placement routes %d groups, cluster has %d", pm.Groups(), len(c.groups))
	}
	c.placement = pm
	// The handoff's freeze revoked the source group's lease server-side; drop
	// the client-side bindings too rather than find that out one read at a time.
	for _, l := range c.leases {
		l.invalidate()
	}
	c.obs.Journal().Record(obs.EventEpochFlip, -1, "placement epoch %d installed (digest %v)",
		pm.Epoch(), pm.Digest())
	return nil
}

// registerProposal records the successor map a handoff proposes, keyed by
// its handoff id, so in-doubt resolution can re-derive what a published
// placement digest stands for.
func (c *Cluster) registerProposal(hid uint64, pm *PlacementMap) {
	c.placeMu.Lock()
	c.proposals[hid] = pm
	c.placeMu.Unlock()
}

// proposal looks a registered proposal up.
func (c *Cluster) proposal(hid uint64) *PlacementMap {
	c.placeMu.Lock()
	defer c.placeMu.Unlock()
	return c.proposals[hid]
}

// settleHandoff drops a settled handoff's proposal and advances the
// stability tracker past its id.
func (c *Cluster) settleHandoff(hid uint64) {
	c.placeMu.Lock()
	delete(c.proposals, hid)
	c.placeMu.Unlock()
	c.stability.Done(hid)
}

// Group exposes one shard's group (tests, failure injection).
func (c *Cluster) Group(s int) *Group { return c.groups[s] }

// Watermarks snapshots every shard's commit watermark.
func (c *Cluster) Watermarks() ShardVector {
	v := make(ShardVector, len(c.groups))
	for i, g := range c.groups {
		v[i] = g.Watermark()
	}
	return v
}

// Stop halts the watch loop, any lease renewal in flight, and every group. If
// the run ends dirty —
// alerts fired or audit alarms outstanding — an armed flight recorder
// persists a final post-mortem bundle before the groups go down, while
// their stats are still probeable. Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		if c.watchStop != nil {
			close(c.watchStop)
			c.watchWG.Wait()
		}
		// One final evaluation catches anything that happened since the
		// last tick (or everything, when no ticker ran).
		c.rules.Evaluate()
		if c.flight != nil && (c.rules.Total() > 0 || len(c.obs.Audit().Alarms()) > 0) {
			c.flight.Write("dirty-stop")
		}
	})
	for _, l := range c.leases {
		l.close()
	}
	c.leaseCancel()
	c.leaseWG.Wait()
	for _, g := range c.groups {
		if g != nil {
			g.Stop()
		}
	}
}

// Stats aggregates per-shard numbers into cluster-level ones.
type Stats struct {
	PerShard []GroupStats
	// Committed is the cluster-wide committed-operation count; MeanLat and
	// P99Lat are over the pooled latency samples of all shards.
	Committed uint64
	MeanLat   time.Duration
	P99Lat    time.Duration
	// ViewChanges is the cluster-wide count of installed views after
	// genesis (summed over groups by metrics.Merge) — nonzero means some
	// shard lost a primary during the run.
	ViewChanges uint64
}

// Stats merges every group's counters (metrics.Merge pools the samples).
func (c *Cluster) Stats() Stats {
	st := Stats{}
	collectors := make([]*metrics.Collector, 0, len(c.groups))
	for _, g := range c.groups {
		st.PerShard = append(st.PerShard, g.Stats())
		collectors = append(collectors, g.snapshotCollector())
	}
	// Every group collector is built identically (same open window), so a
	// window mismatch here is a programming error, not a runtime state.
	merged, err := metrics.Merge(collectors...)
	if err != nil {
		panic(err)
	}
	st.Committed = merged.TotalDone()
	st.MeanLat = merged.MeanLatency()
	st.P99Lat = merged.Percentile(99)
	st.ViewChanges = merged.ViewChanges()
	return st
}

// Session is one client identity's routing handle: it holds a client
// endpoint in every group and sends each operation to the shard that owns
// its key under the session's cached placement epoch. When a shard's store
// answers WrongShard (the range was handed away) or RangeMigrating (a
// handoff is in flight) the session refreshes its placement from the
// cluster and retries transparently, so callers never observe an epoch
// flip beyond a latency blip.
type Session struct {
	c       *Cluster
	id      types.ClientID
	clients []*runtime.Client
	coord   *txn.Coordinator

	pmMu sync.Mutex
	pm   *PlacementMap
}

// Session attaches client id to every group. The id must be listed in the
// group template's Clients.
func (c *Cluster) Session(id types.ClientID) *Session {
	s := &Session{c: c, id: id, pm: c.Placement()}
	for _, g := range c.groups {
		s.clients = append(s.clients, g.NewClient(id))
	}
	s.coord = txn.NewCoordinator(txn.Config{
		Arbiter:  c.arbiter,
		Log:      c.txnLog,
		NewTxID:  c.newTxID,
		Submit:   s.submitShard,
		ShardFor: func(key uint64) int { return s.placement().ShardFor(key) },
		Done:     c.stability.Done,
		Health:   s.participantHealth,
		Obs:      c.obs,
	})
	return s
}

// participantHealth is the coordinator's health gate: a Stalled participant
// fails the transaction fast (ErrShardDegraded) before any intent installs;
// view-changing participants rank after healthy ones in the prepare
// fan-out.
func (s *Session) participantHealth(g int) (int, error) {
	switch h := s.c.mon.Check(g); h.State {
	case GroupStalled:
		s.c.obs.Metrics().Counter(obs.MDegradedErrors).Inc()
		return 0, fmt.Errorf("group stalled for %v (view %d, %d replicas up): %w",
			h.StalledFor.Round(time.Millisecond), h.View, h.ReplicasUp, ErrShardDegraded)
	case GroupViewChanging:
		return 1, nil
	default:
		return 0, nil
	}
}

// placement returns the session's cached map.
func (s *Session) placement() *PlacementMap {
	s.pmMu.Lock()
	defer s.pmMu.Unlock()
	return s.pm
}

// refreshPlacement re-reads the cluster's installed map into the cache and
// returns it.
func (s *Session) refreshPlacement() *PlacementMap {
	pm := s.c.Placement()
	s.pmMu.Lock()
	if pm.Epoch() > s.pm.Epoch() {
		s.pm = pm
	} else {
		pm = s.pm
	}
	s.pmMu.Unlock()
	return pm
}

// Epoch returns the placement epoch the session currently routes by.
func (s *Session) Epoch() uint64 { return s.placement().Epoch() }

// Health samples (rate-limited) every group's health classification — the
// per-shard {view, primary, stalled-since, watermark} surface sessions
// route by.
func (s *Session) Health() []GroupHealth { return s.c.Health() }

// Routing retry envelope: how long a session keeps retrying an operation
// that hits a frozen (mid-handoff) or released range before giving up. A
// runtime handoff completes in well under a second; the envelope is
// generous so a slow flip surfaces as latency, not spurious errors.
// viewChangeGrace bounds how long a session defers to an in-progress view
// change before submitting anyway — the submission's client resends are
// what drive a primary election that has not started yet, so the grace
// must run out rather than spin.
const (
	routeRetryDelay = 5 * time.Millisecond
	routeRetryMax   = 600 // ≈3s of retries
	viewChangeGrace = 20  // × routeRetryDelay ≈100ms of election deference
)

// gateHealth applies health-aware routing for group g. A Stalled group
// fails fast with ErrShardDegraded — the caller gets a diagnosis now
// instead of a context deadline later. A ViewChanging group is given a
// short grace to finish electing (the request would only pile onto a dead
// primary); when the grace runs out the operation proceeds anyway, because
// submitted traffic is exactly what triggers backup suspicion when the
// election has not started.
func (s *Session) gateHealth(ctx context.Context, g int, span *obs.Span) error {
	for wait := 0; ; wait++ {
		h := s.c.mon.Check(g)
		switch {
		case h.State == GroupStalled:
			s.c.obs.Metrics().Counter(obs.MDegradedErrors).Inc()
			span.Annotate("health gate: group %d stalled", g)
			return fmt.Errorf("shard: group %d stalled for %v (view %d, %d/%d replicas up, primary up: %v): %w",
				g, h.StalledFor.Round(time.Millisecond), h.View, h.ReplicasUp,
				s.c.groups[g].Runtime().N(), h.PrimaryUp, ErrShardDegraded)
		case h.State == GroupViewChanging && wait < viewChangeGrace:
			if wait == 0 {
				span.Annotate("health gate: deferring to view change on group %d", g)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(routeRetryDelay):
			}
		default:
			return nil
		}
	}
}

// Do routes one operation to the shard owning op.Key and executes it there —
// the single-shard fast path: exactly one consensus group is touched. Stale
// placement (WrongShard) and in-flight handoffs (RangeMigrating) are
// retried through refreshed epochs; routing is health-aware (gateHealth):
// a mid-election group is deferred to briefly and a Stalled group fails
// fast with ErrShardDegraded. When the placement never converges the
// retry loop stops with ErrUnroutable rather than spinning to the context
// deadline. The signals are in-band result bytes: for a raw OpRead a
// stored value equal to one of them would be mistaken for a routing
// signal — use Get (framed) rather than Do(OpRead) when values are
// untrusted.
func (s *Session) Do(ctx context.Context, op *kvstore.Op) ([]byte, error) {
	span := s.c.obs.Tracer().StartTrace("session", "do")
	defer span.End()
	span.Annotate("key %d", op.Key)
	for attempt := 0; ; attempt++ {
		pm := s.placement()
		target := pm.ShardFor(op.Key)
		span.Annotate("route: shard %d at epoch %d", target, pm.Epoch())
		if err := s.gateHealth(ctx, target, span); err != nil {
			return nil, fmt.Errorf("shard: key %d: %w", op.Key, err)
		}
		sub := span.Child("consensus", "submit")
		res, seq, view, err := s.submitShardSeq(ctx, target, op)
		if err != nil {
			sub.End()
			return nil, err
		}
		sub.Annotate("shard %d committed seq %d in view %d", target, seq, view)
		sub.End()
		switch string(res) {
		case kvstore.WrongShard, kvstore.RangeMigrating:
		default:
			span.Annotate("reply: %d bytes", len(res))
			return res, nil
		}
		if attempt >= routeRetryMax {
			s.c.obs.Metrics().Counter(obs.MUnroutableErrors).Inc()
			return nil, fmt.Errorf("shard: key %d still answered %s by group %d after %d retries at epoch %d: %w",
				op.Key, res, target, attempt, pm.Epoch(), ErrUnroutable)
		}
		s.c.obs.Metrics().Counter(obs.MRouteRetries).Inc()
		// A newer epoch may already be installed (retry immediately through
		// it); otherwise the handoff has not flipped yet — wait briefly.
		if s.refreshPlacement().Epoch() == pm.Epoch() {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(routeRetryDelay):
			}
		}
	}
}

// Get reads one key (read-committed; a key under a pending transaction
// intent serves its committed fallback, like MultiGet). When the owning
// group holds a live read lease the value comes straight from its primary
// without touching consensus (lease.go); every miss — lease absent, expired,
// group degraded, fence or range refusal — falls back to the consensus read
// transparently. It uses the framed intent-aware read internally so stored
// values can never alias the routing-retry signals a raw OpRead result could.
func (s *Session) Get(ctx context.Context, key uint64) ([]byte, error) {
	if val, found, ok := s.leasedGet(ctx, key); ok {
		if !found {
			return []byte("NOTFOUND"), nil
		}
		return val, nil
	}
	start := time.Now()
	res, err := s.Do(ctx, kvstore.EncodeTxnRead(key))
	if err != nil {
		return nil, err
	}
	rr, err := kvstore.DecodeTxnRead(res)
	if err != nil {
		return nil, err
	}
	s.c.obs.Metrics().Histogram(obs.MConsensusReadLatency).ObserveDuration(time.Since(start))
	if !rr.Found {
		return []byte("NOTFOUND"), nil
	}
	return rr.Value, nil
}

// Put overwrites one key. A key held by a pending transaction intent
// refuses plain writes deterministically; the returned error names the
// conflict so the write is never silently lost.
func (s *Session) Put(ctx context.Context, key uint64, value []byte) error {
	res, err := s.Do(ctx, &kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: value})
	return writeOutcome(key, res, err)
}

// Insert writes a fresh key (same intent-conflict contract as Put).
func (s *Session) Insert(ctx context.Context, key uint64, value []byte) error {
	res, err := s.Do(ctx, &kvstore.Op{Code: kvstore.OpInsert, Key: key, Value: value})
	return writeOutcome(key, res, err)
}

// writeOutcome maps a plain write's deterministic result bytes to an error:
// a transactional intent on the key rejects the write (resolve or retry).
func writeOutcome(key uint64, res []byte, err error) error {
	if err != nil {
		return err
	}
	if string(res) == kvstore.TxnConflict {
		return fmt.Errorf("shard: key %d is held by a pending transaction intent", key)
	}
	return nil
}

// MultiGet reads a set of keys that may span shards, read-committed: every
// value is a committed value on its shard, and every shard is read at a
// sequence number at least the shard's commit watermark when the call began
// (so a write this process saw commit before the call is visible). A key
// under a pending transaction intent is NOT silently served stale: its
// ReadResult carries the blocking transaction id (BlockedBy) alongside the
// read-committed fallback value, so callers can distinguish "current" from
// "a transaction is about to change this" (and resolve the transaction if
// its coordinator died — Session.ResolveTxn). Routing is health-aware:
// keys owned by a Stalled group are NOT read and NOT silently dropped —
// their ReadResult comes back with Unavailable set, so a cross-shard read
// degrades explicitly per shard instead of blocking whole on one wedged
// group. The returned ShardVector reports, per shard, the highest
// consensus sequence among this call's reads — the version the result was
// read at (a degraded shard reports its fence). Reads of different shards
// are issued concurrently; there is no cross-shard snapshot (two shards
// may be read at versions that never coexisted; use Txn for atomic writes).
func (s *Session) MultiGet(ctx context.Context, keys []uint64) (map[uint64]kvstore.ReadResult, ShardVector, error) {
	span := s.c.obs.Tracer().StartTrace("session", "multiget")
	defer span.End()
	span.Annotate("%d keys", len(keys))
	fence := s.c.Watermarks()
	versions := make(ShardVector, len(s.c.groups))
	touched := make(map[int]bool)
	values := make(map[uint64]kvstore.ReadResult, len(keys))

	type keyRead struct {
		key   uint64
		shard int
		raw   []byte
		seq   types.SeqNum
		err   error
	}
	// Single-shard short-circuit: when every key maps to one healthy leased
	// group, serve them through the leased fast path directly — none of the
	// per-round partition maps, result channel, or reader goroutines below
	// are allocated. Keys the fast path cannot serve re-enter the general
	// machinery as the pending set.
	pending := keys
	leasedShort, leasedRest := s.multiGetLeased(ctx, span, keys, values, versions, touched)
	if leasedShort {
		pending = leasedRest
	}
	// A round reads every pending key through the session's current
	// placement; keys answered WrongShard (their range moved under this
	// call's feet) re-run in the next round through a refreshed epoch.
	for attempt := 0; len(pending) > 0; attempt++ {
		pm := s.placement()
		parts := pm.Partition(pending)
		if attempt == 0 && !leasedShort {
			// Fan-out width: distinct shards the read set spans under the
			// placement the call started with.
			s.c.obs.Metrics().Histogram(obs.MMultiGetFanout).Observe(int64(len(parts)))
		}
		round := span.Child("session", "read-round")
		round.Annotate("epoch %d: %d keys over %d shards", pm.Epoch(), len(pending), len(parts))
		reads := make(chan keyRead, len(pending))
		issued := 0
		// Issue in ascending shard order (then per-shard input order) so
		// the request sequence is deterministic; per-key submissions still
		// run concurrently — the client library tracks each outstanding
		// request and the primary batches them, so a shard's whole read
		// set usually costs one consensus round.
		for _, shardIdx := range SortedShards(parts) {
			if err := s.gateHealth(ctx, shardIdx, round); err != nil {
				if !errors.Is(err, ErrShardDegraded) {
					round.End()
					return nil, nil, err
				}
				// Degraded shard: report its keys explicitly instead of
				// blocking the whole read on a wedged group.
				round.Annotate("shard %d degraded: %d keys unavailable", shardIdx, len(parts[shardIdx]))
				for _, k := range parts[shardIdx] {
					values[k] = kvstore.ReadResult{Unavailable: true}
				}
				continue
			}
			for _, k := range parts[shardIdx] {
				issued++
				go func(shardIdx int, k uint64) {
					raw, seq, _, err := s.submitShardSeq(ctx, shardIdx, kvstore.EncodeTxnRead(k))
					reads <- keyRead{key: k, shard: shardIdx, raw: raw, seq: seq, err: err}
				}(shardIdx, k)
			}
		}
		var stale []uint64
		var firstErr error
		for i := 0; i < issued; i++ {
			r := <-reads
			if r.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d key %d: %w", r.shard, r.key, r.err)
				}
				continue
			}
			touched[r.shard] = true
			if r.seq > versions[r.shard] {
				versions[r.shard] = r.seq
			}
			if string(r.raw) == kvstore.WrongShard || string(r.raw) == kvstore.RangeMigrating {
				stale = append(stale, r.key)
				continue
			}
			rr, err := kvstore.DecodeTxnRead(r.raw)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d key %d: %w", r.shard, r.key, err)
				}
				continue
			}
			values[r.key] = rr
		}
		if firstErr != nil {
			round.End()
			return nil, nil, firstErr
		}
		if len(stale) > 0 {
			round.Annotate("%d keys stale, retrying", len(stale))
			if attempt >= routeRetryMax {
				s.c.obs.Metrics().Counter(obs.MUnroutableErrors).Inc()
				round.End()
				return nil, nil, fmt.Errorf("shard: %d keys still unrouted after %d retries at epoch %d: %w",
					len(stale), attempt, pm.Epoch(), ErrUnroutable)
			}
			s.c.obs.Metrics().Counter(obs.MRouteRetries).Inc()
			if s.refreshPlacement().Epoch() == pm.Epoch() {
				select {
				case <-ctx.Done():
					round.End()
					return nil, nil, ctx.Err()
				case <-time.After(routeRetryDelay):
				}
			}
		}
		round.End()
		sortKeys(stale)
		pending = stale
	}
	// Shards this call did not read report the fence itself: nothing newer
	// was observed, nothing older can be claimed.
	for i := range versions {
		if !touched[i] {
			versions[i] = fence[i]
		}
	}
	// Consensus serializes each shard's reads after the writes below its
	// fence, so the observed versions always cover the fence; keep the
	// invariant checked rather than assumed.
	if !versions.Covers(fence) {
		return nil, nil, fmt.Errorf("shard: read versions %v regressed below fence %v", versions, fence)
	}
	return values, versions, nil
}

// sortKeys orders a key slice ascending (deterministic retry rounds).
func sortKeys(keys []uint64) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}
