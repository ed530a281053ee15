package sim

import (
	"math"
	"slices"
	"time"
)

// collector keeps the kernel's completion count and exact latency samples
// for one measurement window (the paper's warmup/cooldown trimming), so the
// experiment table reports exact percentiles. The kernel is single-threaded,
// so it takes no lock.
type collector struct {
	windowStart time.Duration
	windowEnd   time.Duration // 0 = open
	done        uint64        // completions inside the window
	latencies   []time.Duration
	maxSamples  int
	truncated   bool // an in-window sample was lost to maxSamples
}

func newCollector(maxSamples int) *collector { return &collector{maxSamples: maxSamples} }

// setWindow restricts counting to completions in [start, end) of
// experiment time; end == 0 leaves the window open.
func (c *collector) setWindow(start, end time.Duration) {
	c.windowStart, c.windowEnd = start, end
}

// record notes an operation that completed at time now after latency.
func (c *collector) record(now, latency time.Duration) {
	if now < c.windowStart || (c.windowEnd != 0 && now >= c.windowEnd) {
		return
	}
	c.done++
	if len(c.latencies) < c.maxSamples {
		c.latencies = append(c.latencies, latency)
	} else {
		c.truncated = true
	}
}

// completed returns the number of in-window completions.
func (c *collector) completed() uint64 { return c.done }

// throughput returns in-window completions per second of windowLen.
func (c *collector) throughput(windowLen time.Duration) float64 {
	if windowLen <= 0 {
		return 0
	}
	return float64(c.done) / windowLen.Seconds()
}

// meanLatency returns the average retained latency sample.
func (c *collector) meanLatency() time.Duration {
	if len(c.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range c.latencies {
		sum += l
	}
	return sum / time.Duration(len(c.latencies))
}

// percentile returns the p-th latency percentile (0 < p <= 100) of the
// retained samples. It sorts them in place; their order carries nothing.
func (c *collector) percentile(p float64) time.Duration {
	if len(c.latencies) == 0 {
		return 0
	}
	slices.Sort(c.latencies)
	idx := int(math.Ceil(p/100*float64(len(c.latencies)))) - 1
	return c.latencies[max(0, min(idx, len(c.latencies)-1))]
}
