package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"syscall"
	"time"
)

// ack is one acknowledged operation: when its reply quorum (or session
// result) arrived, and its latency — from submission on a closed loop, from
// the instant it was due on an open loop.
type ack struct{ end, lat int64 }

// opLog is one load generator's private record of a run, appended to without
// synchronisation and read only after the generator has stopped.
type opLog struct {
	acks  []ack
	fails []int64 // end times of operations that errored, were refused or hit their deadline
	lags  []int64 // open loop only: how late the generator issued an op it was free to issue
}

// newOpLogs returns one log per load generator, sized so that a run of the
// given length appends without reallocating (60k ops/s is above anything
// measured here).
func newOpLogs(generators int, run time.Duration) []*opLog {
	capacity := int(run.Seconds()*60_000)/generators + 1024
	logs := make([]*opLog, generators)
	for i := range logs {
		logs[i] = &opLog{acks: make([]ack, 0, capacity)}
	}
	return logs
}

// procSnap is the process-wide accounting read at both edges of the window.
type procSnap struct {
	at      int64
	mallocs uint64
	pauseNs uint64
	cpuNs   int64
}

func readProc() procSnap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := int64(0)
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return procSnap{at: now(), mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, cpuNs: cpu}
}

// measurement is what one measured window produced.
type measurement struct {
	logs       []*opLog
	start, end procSnap // the window is [start.at, end.at)
}

// summary is a window reduced to the numbers the metrics are built from.
type summary struct {
	windowS   float64
	acked     int64 // operations acknowledged inside the window
	failed    int64
	ops       float64 // acked, as the base of throughput and per-op ratios
	lats      []int64 // sorted
	emptyBkts int     // 100 ms buckets of the window without one acknowledgement
	lags      []int64 // sorted
	// Process-wide deltas over the window (replicas and clients together).
	mallocs, pauseNs uint64
	cpuNs            int64
}

const availBucket = int64(100 * time.Millisecond)

func (m *measurement) summarize() summary {
	ws, we := m.start.at, m.end.at
	s := summary{windowS: float64(we-ws) / 1e9, mallocs: m.end.mallocs - m.start.mallocs,
		pauseNs: m.end.pauseNs - m.start.pauseNs, cpuNs: m.end.cpuNs - m.start.cpuNs}
	buckets := make([]bool, (we-ws)/availBucket) // whole buckets only: the window's ragged tail is not an outage
	for _, l := range m.logs {
		for _, a := range l.acks {
			if a.end < ws || a.end >= we {
				continue
			}
			s.acked++
			s.lats = append(s.lats, a.lat)
			if b := (a.end - ws) / availBucket; int(b) < len(buckets) {
				buckets[b] = true
			}
		}
		for _, end := range l.fails {
			if end >= ws && end < we {
				s.failed++
			}
		}
		s.lags = append(s.lags, l.lags...)
	}
	for _, hit := range buckets {
		if !hit {
			s.emptyBkts++
		}
	}
	sortInt64(s.lats)
	sortInt64(s.lags)
	s.ops = float64(s.acked)
	return s
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (s summary) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"throughput_ops_s": ratio(s.ops, s.windowS),
		"latency_p50_ms":   msOf(percentile(s.lats, 50)),
		"latency_p99_ms":   msOf(percentile(s.lats, 99)),
		"allocs_per_op":    ratio(float64(s.mallocs), s.ops),
		"setup_s":          setupS,
	}
}

// check is one correctness check's verdict; note is context printed beside a
// passing one.
type check struct {
	name string
	err  error
	note string
}

// agreement is what the replicas agreed on once the load stopped: how many
// live replicas were left behind the quorum, and the error if no quorum
// agreed. Both deployments compute it once and use it as a per-layer metric
// and as a check.
type agreement struct {
	lagging int
	note    string
	err     error
}

func (a *agreement) check() check { return check{name: "replicas_agree", err: a.err, note: a.note} }

func passed(name string) check { return check{name: name} }

func failedf(name, format string, args ...any) check {
	return check{name: name, err: fmt.Errorf(format, args...)}
}

// p99Support is the sample-size rule for the tail: a p99 is reported only
// with at least ten samples beyond it.
const checkP99Support = "p99_support"

func p99Support(lats []int64) check {
	if n := beyond(lats, 99); n < 10 {
		return failedf(checkP99Support, "only %d of %d latency samples lie beyond the p99 (want >= 10)", n, len(lats))
	}
	return passed(checkP99Support)
}

// warmupFor is the unmeasured lead-in of a window of the given length: a
// tenth of it, between 0.1 s and 1 s.
func warmupFor(seconds float64) time.Duration {
	w := seconds / 10
	return time.Duration(math.Min(math.Max(w, 0.1), 1) * float64(time.Second))
}
