package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric name registry. Instrumented layers use these names (optionally
// suffixed with a per-group label via GroupLabel) so dashboards and tests
// never guess at strings. Histogram values are nanoseconds unless the
// name says otherwise.
const (
	// MShardOpLatency (histogram, per-group label): end-to-end latency of
	// one Session operation against one shard, submission to quorum reply.
	MShardOpLatency = "shard_op_latency_ns"
	// MMultiGetFanout (histogram, unitless): number of distinct shards one
	// MultiGet fanned out to.
	MMultiGetFanout = "multiget_fanout"
	// MTxnPhasePrepare (histogram): 2PC phase-1 window — first prepare
	// sent to last vote collected.
	MTxnPhasePrepare = "txn_phase_prepare_ns"
	// MTxnPhaseDecide (histogram): vote collection to the attested
	// decision being minted and published.
	MTxnPhaseDecide = "txn_phase_decide_ns"
	// MTxnPhaseDrive (histogram): decision publication to the last
	// participant acknowledging phase 2.
	MTxnPhaseDrive = "txn_phase_drive_ns"
	// MRebalanceWindow (histogram): full rebalance handoff window —
	// freeze encoded to placement installed after the attested flip.
	MRebalanceWindow = "rebalance_window_ns"
	// MHealthTransitions (counter, per-group label): health-state
	// transitions observed by the monitor for one group.
	MHealthTransitions = "health_transitions"
	// MDegradedErrors (counter): operations refused with ErrShardDegraded.
	MDegradedErrors = "err_shard_degraded"
	// MUnroutableErrors (counter): operations failed with ErrUnroutable.
	MUnroutableErrors = "err_unroutable"
	// MRouteRetries (counter): routing retries (stale placement, migrating
	// ranges, view-change grace) across all sessions.
	MRouteRetries = "route_retries"
	// MExecBatch (histogram, unitless): requests per executed batch on a
	// replica.
	MExecBatch = "exec_batch_requests"
	// MSigVerifies (counter): signature/attestation verifications actually
	// performed (memo misses) on the consensus path.
	MSigVerifies = "sig_verifies_total"
	// MSigVerifyCacheHits (counter): verifications answered from the
	// verified-statement memo without touching crypto.
	MSigVerifyCacheHits = "sig_verify_cache_hits"
	// MVerifyPoolDepth (gauge): attestation checks whose completion event
	// the simulator has scheduled and not yet run. The runtime completes
	// every check inline and leaves it at 0.
	MVerifyPoolDepth = "verify_pool_depth"
	// MQCSize (histogram, unitless): voter count of each slot as its vote
	// quorum forms (the signer count of the certificate it leaves behind),
	// and of each client commit certificate checked.
	MQCSize = "qc_size"
	// MBatchWait (histogram): age of a batch's oldest request when the
	// primary cuts the batch.
	MBatchWait = "batch_wait_ns"
	// MBatchCuts (counter): batches the primary cut, counted per reason
	// (ReasonLabel(MBatchCuts, BatchCut…)).
	MBatchCuts = "batch_cuts_total"
	// MInboundDrops (counter): inbound messages a replica dropped because
	// its event queue was full. Consensus recovers them by retransmission;
	// a steady count means the queue is too small for the traffic.
	MInboundDrops = "inbound_drops_total"
	// MLeaseReads (counter): single-key reads answered on the leased fast
	// path, without consensus.
	MLeaseReads = "lease_reads_total"
	// MLeaseFallbacks (counter): leased-read attempts that fell back to the
	// consensus path, all causes. The runtime also counts each cause under
	// ReasonLabel(MLeaseFallbacks, LeaseFallback…); the causes sum to this.
	MLeaseFallbacks = "lease_fallbacks_total"
	// MLeaseGrants (counter): lease grants and renewals this process saw
	// commit — each one a consensus round plus one attested counter access at
	// the primary. Steady state is one per group per half lease duration.
	MLeaseGrants = "lease_grants_total"
	// MLeaseRevocations (counter): lease deactivations (view transitions,
	// placement flips, range freezes, state rollbacks).
	MLeaseRevocations = "lease_revocations"
	// MLeaseReadLatency (histogram): end-to-end latency of reads answered on
	// the leased fast path.
	MLeaseReadLatency = "read_latency_lease_ns"
	// MConsensusReadLatency (histogram): end-to-end latency of single-key
	// reads that went through consensus (no lease, or after a fallback).
	MConsensusReadLatency = "read_latency_consensus_ns"
)

// Reasons a leased read fell back to consensus (ReasonLabel values for
// MLeaseFallbacks).
const (
	// LeaseFallbackNoLease: no usable lease — the grant failed, the primary
	// answered that it holds none, or the lease expired with the read in
	// flight.
	LeaseFallbackNoLease = "no_lease"
	// LeaseFallbackGrantInFlight: no usable lease and another reader's grant
	// already in consensus; this read did not wait for it.
	LeaseFallbackGrantInFlight = "grant_in_flight"
	// LeaseFallbackBehindFence: the primary's read view had not reached the
	// read's fence and the read could not wait there (parking full).
	LeaseFallbackBehindFence = "behind_fence"
	// LeaseFallbackRefused: unowned or migrating range, or key under a
	// transactional intent.
	LeaseFallbackRefused = "refused"
	// LeaseFallbackBindingMismatch: served, but not under the lease this
	// process holds, below the fence, or with a bad grant attestation.
	LeaseFallbackBindingMismatch = "binding_mismatch"
	// LeaseFallbackTimeout: the primary did not answer in time.
	LeaseFallbackTimeout = "timeout"
)

// Reasons a primary cut a batch (ReasonLabel values for MBatchCuts).
const (
	// BatchCutFull: the batch reached BatchSize.
	BatchCutFull = "full"
	// BatchCutTimer: the oldest request had waited BatchTimeout; the batch
	// went out partial.
	BatchCutTimer = "timer"
	// BatchCutIdle: a sequential pipeline's instance completed; what had
	// queued behind it went out partial.
	BatchCutIdle = "idle"
)

// ReasonLabel qualifies a metric name with a reason label.
func ReasonLabel(name, reason string) string {
	return name + "{reason=" + reason + "}"
}

// GroupLabel qualifies a metric name with a per-group (per-shard) label.
func GroupLabel(name string, group int) string {
	return fmt.Sprintf("%s{group=%d}", name, group)
}

// Registry hands out named counters, gauges, and histograms. Instruments
// are created on first use and live for the Observer's lifetime. A nil
// *Registry hands out nil instruments whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named monotonic counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing counter. Nil-safe.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Nil-safe.
type Gauge struct {
	mu sync.Mutex
	v  int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// histSub is the number of sub-buckets per power of two: log-linear
// buckets in the HDR style, bounding relative quantile error to
// 1/histSub without storing samples.
const histSub = 8

// histBuckets covers the full int64 range at histSub sub-buckets per
// power of two.
const histBuckets = 64 * histSub

// Histogram records int64 observations into log-linear buckets: exact
// below histSub, then histSub sub-buckets per power of two (≤12.5%
// relative error on quantiles), constant memory regardless of volume.
// Nil-safe.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// bucketFor maps a non-negative value to its bucket index.
func bucketFor(v int64) int {
	if v < histSub {
		return int(v)
	}
	major := bits.Len64(uint64(v)) // ≥ 4 here
	sub := int(v>>(major-4)) & (histSub - 1)
	return (major-3)*histSub + sub
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	major := idx/histSub + 3
	sub := idx % histSub
	lower := int64(histSub+sub) << (major - 4)
	return lower + (int64(1) << (major - 4)) - 1
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns an upper-bound estimate of the p-th percentile
// (p in [0,100]), clamped to the observed min/max; 0 with no data.
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(p)
}

func (h *Histogram) quantileLocked(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Mean returns the arithmetic mean of the observations; 0 with no data.
func (h *Histogram) Mean() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / int64(h.count)
}

// Max returns the largest observation; 0 with no data.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// HistogramStats is one histogram's exported summary.
type HistogramStats struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Mean  int64  `json:"mean"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P99   int64  `json:"p99"`
}

// MetricsSnapshot is a point-in-time copy of every instrument.
type MetricsSnapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	snap.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	snap.Histograms = make(map[string]HistogramStats, len(r.histograms))
	for name, h := range r.histograms {
		h.mu.Lock()
		snap.Histograms[name] = HistogramStats{
			Count: h.count, Sum: h.sum, Mean: 0, Min: h.min, Max: h.max,
			P50: h.quantileLocked(50), P99: h.quantileLocked(99),
		}
		if h.count > 0 {
			s := snap.Histograms[name]
			s.Mean = h.sum / int64(h.count)
			snap.Histograms[name] = s
		}
		h.mu.Unlock()
	}
	return snap
}

// bucketsSnapshot copies the histogram's raw bucket array and total count
// so the rules engine can compute windowed quantiles from deltas between
// two snapshots.
func (h *Histogram) bucketsSnapshot() (buckets [histBuckets]uint64, count uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count
}

// histogramNames returns the registered histogram names, sorted, so the
// rules engine enumerates per-group instruments deterministically.
func (r *Registry) histogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as JSON.
func (r *Registry) JSON() ([]byte, error) { return json.Marshal(r.Snapshot()) }

// String renders the snapshot as sorted "name value" lines.
func (s MetricsSnapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-40s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%d p50=%d p99=%d max=%d\n",
			n, h.Count, h.Mean, h.P50, h.P99, h.Max)
	}
	return b.String()
}
