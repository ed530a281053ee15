package shard

import (
	"sync/atomic"
	"time"

	"flexitrust/internal/obs"
	"flexitrust/internal/runtime"
	"flexitrust/internal/types"
)

// Group is one shard's consensus group: a full protocol deployment (its own
// replicas, transport hub, keyring and trusted components) whose trusted
// counter identifiers live in a namespace private to the shard, plus the
// shard-local bookkeeping the router needs (commit watermark, latency).
type Group struct {
	// Index is the shard number this group serves (0..S-1).
	Index int

	inner     *runtime.Cluster
	watermark Watermark

	// latency is the group's one record of committed operations: the
	// observer's shard_op_latency_ns{group=Index} histogram, or a private
	// one when observability is off. Its Count is the committed count.
	latency   *obs.Histogram
	submitted atomic.Uint64
	inflight  atomic.Int64
}

// newGroup boots one shard's runtime cluster. cfg must already carry the
// shard's trusted-counter namespace and seed.
func newGroup(idx int, cfg runtime.ClusterConfig) (*Group, error) {
	inner, err := runtime.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	latency := cfg.Engine.Observer.Metrics().Histogram(obs.GroupLabel(obs.MShardOpLatency, idx))
	if latency == nil {
		latency = &obs.Histogram{}
	}
	return &Group{Index: idx, inner: inner, latency: latency}, nil
}

// NewClient attaches a client library to this group.
func (g *Group) NewClient(id types.ClientID) *runtime.Client { return g.inner.NewClient(id) }

// Runtime exposes the underlying cluster (tests, failure injection).
func (g *Group) Runtime() *runtime.Cluster { return g.inner }

// noteCommit records a committed operation: the watermark advances to its
// consensus sequence number and its latency joins the group's histogram.
func (g *Group) noteCommit(seq types.SeqNum, latency time.Duration) {
	g.watermark.Advance(seq)
	g.latency.ObserveDuration(latency)
}

// noteSubmit counts an operation routed to this shard and marks it in
// flight; the paired noteDone (deferred by the submitter, error or not)
// retires it. The health monitor reads the in-flight count as "demand": a
// group with operations in flight but no commit progress is stalling real
// work.
func (g *Group) noteSubmit() {
	g.submitted.Add(1)
	g.inflight.Add(1)
}

// noteDone retires an in-flight operation (committed or failed).
func (g *Group) noteDone() { g.inflight.Add(-1) }

// inflightOps returns the number of operations currently in flight.
func (g *Group) inflightOps() int64 { return g.inflight.Load() }

// probeViews samples the group's replicas for the highest installed view
// and view-change count (down replicas excluded).
func (g *Group) probeViews() (view types.View, viewChanges uint64) {
	for _, p := range g.inner.Probe() {
		if !p.Up {
			continue
		}
		if p.Status.View > view {
			view = p.Status.View
		}
		if p.Status.ViewChanges > viewChanges {
			viewChanges = p.Status.ViewChanges
		}
	}
	return view, viewChanges
}

// committedOps returns the group's client-observed commit count.
func (g *Group) committedOps() uint64 { return g.latency.Count() }

// Watermark returns the shard's committed-sequence watermark.
func (g *Group) Watermark() types.SeqNum { return g.watermark.Load() }

// GroupStats is one shard's contribution to cluster-level numbers.
type GroupStats struct {
	Shard     int
	Submitted uint64        // operations routed to this shard
	Committed uint64        // operations committed (client-observed)
	Watermark types.SeqNum  // highest committed consensus sequence observed
	MeanLat   time.Duration // mean client-observed latency
	P99Lat    time.Duration // from the log-linear histogram: ≤12.5 % high
	// View is the highest view any up replica has installed; ViewChanges
	// counts installed views after genesis — a group that keeps electing
	// primaries is degrading even when throughput looks plausible.
	View        types.View
	ViewChanges uint64
}

// Stats snapshots the group's counters (including a live view probe).
func (g *Group) Stats() GroupStats {
	view, vcs := g.probeViews()
	return GroupStats{
		Shard:       g.Index,
		Submitted:   g.submitted.Load(),
		Committed:   g.latency.Count(),
		Watermark:   g.watermark.Load(),
		MeanLat:     time.Duration(g.latency.Mean()),
		P99Lat:      time.Duration(g.latency.Quantile(99)),
		View:        view,
		ViewChanges: vcs,
	}
}

// Stop halts every replica in the group.
func (g *Group) Stop() { g.inner.Stop() }
