package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// SLO alert-rules engine: windowed predicates evaluated over the metrics
// registry, the audit stream, and the control-plane journal. Evaluation
// is caller-driven (Evaluate) so the simulator can drive it from virtual
// time deterministically; real deployments run the Start ticker instead.
// Every fired Alert draws a number from the Observer's shared causal
// sequence and lands in the journal as an EventAlert, so "the alert at
// seq 87 fired after the health transition at seq 85" is a statement the
// records themselves support.

// Rule names, used in Alert.Rule and stable for operator tooling.
const (
	// RuleAuditAlarm promotes an audit-checker alarm (counter regression,
	// epoch regression, decision equivocation/replay) to an alert.
	RuleAuditAlarm = "audit_alarm"
	// RuleStall fires when the health monitor journals a transition into
	// the stalled state.
	RuleStall = "stall"
	// RuleErrorBurn fires when the combined ErrShardDegraded/ErrUnroutable
	// rate over the evaluation window exceeds the configured budget.
	RuleErrorBurn = "slo_error_burn"
	// RuleLatencyP99 fires when a group's windowed shard_op_latency p99
	// exceeds the configured threshold.
	RuleLatencyP99 = "latency_p99"
	// RuleFlapping fires when a group's health-transition count within one
	// window reaches the flap threshold.
	RuleFlapping = "health_flapping"
	// RuleVerifySaturation fires when the simulator's pending attestation
	// completions (MVerifyPoolDepth) reach the configured bound.
	RuleVerifySaturation = "verify_pool_saturation"
)

// Alert is one fired rule. Seq places it in the shared causal sequence —
// the same Seq appears on the EventAlert journal entry.
type Alert struct {
	Seq  uint64        `json:"seq"`
	At   time.Duration `json:"at_ns"`
	Rule string        `json:"rule"`
	// Group is the consensus group concerned, -1 for cluster-wide alerts.
	Group int `json:"group"`
	// Value is the measured quantity that crossed the threshold, when the
	// rule has one (error rate, p99 nanoseconds, transition count, depth).
	Value   float64 `json:"value,omitempty"`
	Message string  `json:"message"`
}

// RulesConfig parameterizes the engine. The zero value enables the
// always-on detectors (audit alarms, stalls, error burn at 1 err/s,
// flapping at 4 transitions/window, verify-pool depth 64) and leaves the
// latency SLO off, which guarantees zero false alarms on an idle or
// healthy cluster.
type RulesConfig struct {
	// ErrorRatePerSec is the combined degraded+unroutable error rate
	// budget per second of window; 0 means the 1/s default, negative
	// disables the rule.
	ErrorRatePerSec float64
	// LatencyP99 is the per-group windowed p99 threshold for
	// shard_op_latency; 0 disables the rule.
	LatencyP99 time.Duration
	// FlapTransitions is the per-group health-transition count within one
	// window that counts as flapping; 0 means the default of 4.
	FlapTransitions uint64
	// VerifyPoolDepth is the count of pending attestation completions that
	// counts as saturated; 0 means the default of 64, negative disables the
	// rule.
	VerifyPoolDepth int64
	// AlertBuffer caps retained alerts (default 1024); older alerts are
	// evicted but the Total count survives.
	AlertBuffer int
	// OnAlert, when set, is called synchronously for every fired alert
	// (outside the engine's lock) — the autoscaling supervisor's
	// subscription point.
	OnAlert func(Alert)
	// Flight, when set, receives a metrics snapshot each evaluation and is
	// asked to persist a post-mortem bundle whenever alerts fire.
	Flight *FlightRecorder
}

// Defaults for RulesConfig zero values.
const (
	DefaultErrorRatePerSec = 1.0
	DefaultFlapTransitions = 4
	DefaultVerifyPoolDepth = 64
	DefaultAlertBuffer     = 1024
	// DefaultEvalEvery is the suggested ticker period for Start.
	DefaultEvalEvery = 50 * time.Millisecond
)

// Rules is the engine. Build with NewRules; a nil *Rules is the disabled
// engine and every method on it no-ops.
type Rules struct {
	o   *Observer
	cfg RulesConfig

	mu sync.Mutex
	// Window state: previous counter values, previous histogram buckets,
	// the journal/alarm high-water marks, and the last evaluation time.
	prevCounters map[string]uint64
	prevBuckets  map[string][histBuckets]uint64
	prevCounts   map[string]uint64
	prevAlarms   int
	lastJournal  uint64
	lastEval     time.Duration

	ring  []Alert
	head  int
	n     int
	total uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRules builds an engine over the observer. Returns nil on a nil
// observer (rules need streams to read).
func NewRules(o *Observer, cfg RulesConfig) *Rules {
	if o == nil {
		return nil
	}
	if cfg.ErrorRatePerSec == 0 {
		cfg.ErrorRatePerSec = DefaultErrorRatePerSec
	}
	if cfg.FlapTransitions == 0 {
		cfg.FlapTransitions = DefaultFlapTransitions
	}
	if cfg.VerifyPoolDepth == 0 {
		cfg.VerifyPoolDepth = DefaultVerifyPoolDepth
	}
	if cfg.AlertBuffer <= 0 {
		cfg.AlertBuffer = DefaultAlertBuffer
	}
	return &Rules{
		o:            o,
		cfg:          cfg,
		prevCounters: make(map[string]uint64),
		prevBuckets:  make(map[string][histBuckets]uint64),
		prevCounts:   make(map[string]uint64),
		lastEval:     o.Now(),
		ring:         make([]Alert, cfg.AlertBuffer),
		stop:         make(chan struct{}),
	}
}

// Evaluate runs every rule over the window since the previous evaluation
// and returns the alerts fired this round. Deterministic under the
// simulator: the window is measured on the observer clock, which the
// kernel points at virtual time.
func (r *Rules) Evaluate() []Alert {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	now := r.o.Now()
	window := now - r.lastEval
	var fired []Alert
	add := func(rule string, group int, value float64, format string, args ...any) {
		fired = append(fired, Alert{Rule: rule, Group: group, Value: value,
			Message: fmt.Sprintf(format, args...)})
	}

	// Audit alarms promoted to alerts, one per new alarm.
	alarms := r.o.Audit().Alarms()
	for _, al := range alarms[min(r.prevAlarms, len(alarms)):] {
		add(RuleAuditAlarm, -1, 0, "audit: %s", al.Message)
	}
	r.prevAlarms = len(alarms)

	// Journal scan: transitions into the stalled state fire once per
	// transition event. EventAlert entries (our own output) are skipped.
	for _, ev := range r.o.Journal().Events() {
		if ev.Seq <= r.lastJournal {
			continue
		}
		if ev.Seq > r.lastJournal {
			r.lastJournal = ev.Seq
		}
		if ev.Kind == EventHealthTransition && strings.HasSuffix(ev.Detail, stalledDetailSuffix) {
			add(RuleStall, ev.Group, 0, "group %d stalled (%s, journal seq %d)",
				ev.Group, ev.Detail, ev.Seq)
		}
	}

	// Counter-window rules.
	metricsSnap := r.o.Metrics().Snapshot()
	counters := metricsSnap.Counters
	delta := func(name string) uint64 {
		d := counters[name] - r.prevCounters[name]
		return d
	}
	winSec := window.Seconds()
	if r.cfg.ErrorRatePerSec > 0 && winSec > 0 {
		errs := delta(MDegradedErrors) + delta(MUnroutableErrors)
		if rate := float64(errs) / winSec; errs > 0 && rate >= r.cfg.ErrorRatePerSec {
			add(RuleErrorBurn, -1, rate,
				"%d degraded/unroutable errors in %v (%.1f/s, budget %.1f/s)",
				errs, window, rate, r.cfg.ErrorRatePerSec)
		}
	}
	for name, v := range counters {
		base, _ := splitMetricName(name)
		if base != MHealthTransitions {
			continue
		}
		if d := v - r.prevCounters[name]; d >= r.cfg.FlapTransitions {
			add(RuleFlapping, labelGroup(name), float64(d),
				"group %d: %d health transitions in %v (flap threshold %d)",
				labelGroup(name), d, window, r.cfg.FlapTransitions)
		}
	}
	r.prevCounters = counters

	// Windowed per-group p99 from histogram bucket deltas.
	if r.cfg.LatencyP99 > 0 {
		for _, name := range r.o.Metrics().histogramNames() {
			base, _ := splitMetricName(name)
			if base != MShardOpLatency {
				continue
			}
			buckets, count := r.o.Metrics().Histogram(name).bucketsSnapshot()
			prev := r.prevBuckets[name]
			dCount := count - r.prevCounts[name]
			r.prevBuckets[name] = buckets
			r.prevCounts[name] = count
			if dCount == 0 {
				continue
			}
			p99 := windowedQuantile(buckets, prev, dCount, 99)
			if p99 > int64(r.cfg.LatencyP99) {
				add(RuleLatencyP99, labelGroup(name), float64(p99),
					"group %d: windowed p99 %v over threshold %v (%d samples)",
					labelGroup(name), time.Duration(p99), r.cfg.LatencyP99, dCount)
			}
		}
	}

	// Verification saturation (instantaneous gauge, simulator only).
	if r.cfg.VerifyPoolDepth > 0 {
		if depth := r.o.Metrics().Gauge(MVerifyPoolDepth).Value(); depth >= r.cfg.VerifyPoolDepth {
			add(RuleVerifySaturation, -1, float64(depth),
				"%d attestation checks pending, at or over saturation bound %d",
				depth, r.cfg.VerifyPoolDepth)
		}
	}

	r.lastEval = now

	// Stamp, journal, and retain each alert under the lock; deliver
	// callbacks and the flight-record write after releasing it (the flight
	// recorder snapshots the exporter, which reads Alerts — re-entering
	// r.mu there would deadlock).
	for i := range fired {
		fired[i].Seq = r.o.nextSeq()
		fired[i].At = now
		r.o.Journal().append(Event{
			Seq: fired[i].Seq, At: now, Kind: EventAlert, Group: fired[i].Group,
			Detail: fmt.Sprintf("alert %s: %s", fired[i].Rule, fired[i].Message),
		})
		r.lastJournal = fired[i].Seq
		r.total++
		if r.n < len(r.ring) {
			r.ring[(r.head+r.n)%len(r.ring)] = fired[i]
			r.n++
		} else {
			r.ring[r.head] = fired[i]
			r.head = (r.head + 1) % len(r.ring)
		}
	}
	flight := r.cfg.Flight
	cb := r.cfg.OnAlert
	r.mu.Unlock()

	if flight != nil {
		flight.NoteMetrics(metricsSnap)
	}
	for _, a := range fired {
		if cb != nil {
			cb(a)
		}
	}
	if len(fired) > 0 && flight != nil {
		flight.Write("alert-" + fired[0].Rule)
	}
	return fired
}

// windowedQuantile computes the p-th percentile upper bound over the
// bucket deltas between two snapshots.
func windowedQuantile(cur, prev [histBuckets]uint64, count uint64, p float64) int64 {
	rank := uint64(p / 100 * float64(count))
	if rank >= count {
		rank = count - 1
	}
	var seen uint64
	for i := range cur {
		n := cur[i] - prev[i]
		seen += n
		if n > 0 && seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Alerts copies the retained alerts, oldest first.
func (r *Rules) Alerts() []Alert {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Alert, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.head+i)%len(r.ring)])
	}
	return out
}

// Total returns the number of alerts ever fired (including evicted ones).
func (r *Rules) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Start launches a ticker goroutine evaluating every `every` (0 means
// DefaultEvalEvery). Use only with real time; simulated deployments call
// Evaluate from the kernel instead.
func (r *Rules) Start(every time.Duration) {
	if r == nil {
		return
	}
	if every <= 0 {
		every = DefaultEvalEvery
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.Evaluate()
			}
		}
	}()
}

// Stop halts the ticker goroutine (if any) and waits for it. Idempotent
// and nil-safe.
func (r *Rules) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}
