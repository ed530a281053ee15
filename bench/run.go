package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// params are the arguments of one run.
type params struct {
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	protocol string
	// setups is how many times an untraced run sets the deployment up
	// (setupRepeats, except in the smoke test).
	setups int
}

// bed is a booted deployment with its load generators ready: what a
// workload's set-up returns.
type bed interface {
	// measure drives the load for warmup+window and returns the window.
	measure(warmup, window time.Duration) *measurement
	// layers fills the per-layer metrics this deployment can see (traced
	// runs only); called after measure, before check.
	layers(s summary, v map[string]float64)
	// check runs the workload's correctness checks.
	check() []check
	teardown()
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// openLoop marks a workload whose offered rate fixes its throughput, so
	// tracing overhead cannot show as a throughput ratio.
	openLoop bool
	setup    func(p params, tr *tracer) (bed, error)
}

// The five workloads. Names are durable: later changes claim gains as
// "<metric> on <workload>". BENCHMARK.json records why each exists.
var workloads = []workloadDef{
	{name: "hub_write", setup: kvDef{clients: 128}.setup},
	{name: "tcp_write", setup: kvDef{tcp: true, clients: 16}.setup},
	{name: "shard_read", setup: shardDef{sessions: 64, lease: true, mix: sessMix{put: 0.05}}.setup},
	{name: "shard_txn", setup: shardDef{sessions: 64, mix: sessMix{put: 0.40, multiPut: 0.20}}.setup},
	// The primary stops 1 s into a 20 s window: with the warm-up that is 2 s
	// of load, short of the first checkpoint (100 batches, ≈3.1 s at this
	// rate) — see the README's observation 4 for why it must be.
	{name: "hub_failover", openLoop: true, setup: kvDef{clients: 64, rate: 2000, killShare: 0.05}.setup},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is one finished run.
type outcome struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Result    result `json:"result"`
	checks    []check
	samples   int // latency samples in the window
	beyondP99 int
	traceFile string
	selfTimes map[string]selfTime
}

// setupRepeats is how many times an untraced run sets the deployment up; the
// median is reported as setup_s and the last one is measured.
const setupRepeats = 5

// untracedShare is the part of a traced run's --seconds spent on an untraced
// window of the same workload, the base of obs.trace_overhead_share.
const untracedShare = 0.3

func runWorkload(spec *benchSpec, def *workloadDef, p params) (*outcome, error) {
	out := &outcome{Workload: def.name, Seed: p.seed, Traced: p.traced}
	var values map[string]float64
	var s summary
	var err error
	if p.traced {
		values, s, err = runTraced(spec, def, p, out)
	} else {
		values, s, err = runUntraced(def, p, out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	out.samples, out.beyondP99 = len(s.lats), beyond(s.lats, 99)
	out.Result.Attempted = s.acked + s.failed
	out.Result.Failed = s.failed
	out.Result.Correct = true
	for _, c := range out.checks {
		if c.err != nil {
			out.Result.Correct = false
		}
	}
	if out.Result.Metrics, err = spec.assemble(p.traced, values); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return out, nil
}

// runUntraced measures the end-to-end metrics: tracing off, nothing of the
// benchmark's between the load generators and the system.
func runUntraced(def *workloadDef, p params, out *outcome) (map[string]float64, summary, error) {
	var setups []int64
	var b bed
	var err error
	onOneP(func() {
		for i := 0; i < p.setups && err == nil; i++ {
			if b != nil {
				b.teardown()
			}
			t0 := now()
			b, err = def.setup(p, nil)
			setups = append(setups, now()-t0)
		}
	})
	if err != nil {
		return nil, summary{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.teardown()
	window := time.Duration(p.seconds * float64(time.Second))
	m := b.measure(warmupFor(p.seconds), window)
	s := m.summarize()
	out.checks = append(b.check(), p99Support(s.lats))
	return s.endToEnd(float64(medianInt64(setups)) / 1e9), s, nil
}

// runTraced measures the per-layer metrics: a short untraced window first
// (the base of the tracing overhead), then the traced window with the
// benchmark's decorators, samplers and the system's own observability on,
// then the layer probes on inputs captured from that window.
func runTraced(spec *benchSpec, def *workloadDef, p params, out *outcome) (map[string]float64, summary, error) {
	v := make(map[string]float64, len(spec.PerLayer))
	for _, m := range spec.PerLayer {
		v[m.Name] = 0 // a metric that does not apply to this workload reads 0
	}
	tracedSeconds := p.seconds
	var untraced float64
	if !def.openLoop {
		tracedSeconds = p.seconds * (1 - untracedShare)
		baseSeconds := p.seconds * untracedShare
		b, err := def.setup(p, nil)
		if err != nil {
			return nil, summary{}, fmt.Errorf("set-up: %w", err)
		}
		m := b.measure(warmupFor(baseSeconds), time.Duration(baseSeconds*float64(time.Second)))
		b.teardown()
		s := m.summarize()
		untraced = ratio(s.ops, s.windowS)
	}

	tr := newTracer(maxClients)
	b, err := def.setup(p, tr)
	if err != nil {
		return nil, summary{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.teardown()
	heap := startHeapSampler()
	m := b.measure(warmupFor(tracedSeconds), time.Duration(tracedSeconds*float64(time.Second)))
	v["proc.heap_peak_mb"] = float64(heap.stop()) / (1 << 20)
	s := m.summarize()

	v["unavail_ms"] = float64(s.emptyBkts) * msOf(availBucket)
	v["failed_share"] = ratio(float64(s.failed), float64(s.acked+s.failed))
	v["proc.cpu_s_per_kop"] = ratio(float64(s.cpuNs)/1e9, s.ops/1000)
	v["proc.gc_pause_ms_total"] = msOf(int64(s.pauseNs))
	v["workload.gen_lag_ms_p99"] = msOf(percentile(s.lags, 99))
	if untraced > 0 {
		v["obs.trace_overhead_share"] = 1 - ratio(s.ops, s.windowS)/untraced
	}
	b.layers(s, v)
	out.checks = b.check()

	in, _ := b.(probeInputs)
	if err := runProbes(in, p.seed, v); err != nil {
		return nil, summary{}, err
	}
	if out.traceFile, out.selfTimes, err = tr.write(p.outDir, def.name, p.seed); err != nil {
		return nil, summary{}, fmt.Errorf("writing the trace: %w", err)
	}
	return v, s, nil
}

// maxClients bounds the client ids any workload uses (hub_write's 128).
const maxClients = 128

// heapSampler tracks the peak of live heap objects' bytes during a window.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > h.peak {
				h.peak = sample[0].Value.Uint64()
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
