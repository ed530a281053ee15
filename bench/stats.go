package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes: spans, latencies and
// the observers of the sharded workloads all read this one monotonic clock.
var epoch = time.Now()

// now returns nanoseconds since the benchmark's epoch.
func now() int64 { return int64(time.Since(epoch)) }

// percentile returns the p-th percentile (nearest rank) of an ascending
// slice; 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// beyond counts the samples strictly above the p-th percentile.
func beyond(sorted []int64, p float64) int {
	v := percentile(sorted, p)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// medianInt64 sorts xs in place and returns its median.
func medianInt64(xs []int64) int64 {
	sortInt64(xs)
	return percentile(xs, 50)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads printed here are the ones the acceptance rule is stated in.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, 0 when b is 0: a per-layer metric whose base did not occur
// in a run reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
