package sim

import (
	"testing"
	"time"
)

func TestWindowedCounting(t *testing.T) {
	c := newCollector(1 << 20)
	c.setWindow(time.Second, 3*time.Second)
	c.record(500*time.Millisecond, 10*time.Millisecond)  // before window
	c.record(1500*time.Millisecond, 20*time.Millisecond) // inside
	c.record(2500*time.Millisecond, 30*time.Millisecond) // inside
	c.record(3500*time.Millisecond, 40*time.Millisecond) // after
	if c.completed() != 2 {
		t.Fatalf("windowed completions = %d, want 2", c.completed())
	}
	if got := c.throughput(2 * time.Second); got != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", got)
	}
	if got := c.meanLatency(); got != 25*time.Millisecond {
		t.Fatalf("mean latency = %v, want 25ms", got)
	}
}

func TestOpenWindow(t *testing.T) {
	c := newCollector(1 << 20)
	c.setWindow(0, 0) // open-ended
	for i := 0; i < 5; i++ {
		c.record(time.Duration(i)*time.Hour, time.Millisecond)
	}
	if c.completed() != 5 {
		t.Fatalf("open window counted %d, want 5", c.completed())
	}
}

func TestPercentiles(t *testing.T) {
	c := newCollector(1 << 20)
	for i := 100; i >= 1; i-- {
		c.record(0, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := c.percentile(tc.p); got != tc.want {
			t.Fatalf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Sorting in place leaves the sample set, and so the mean, as it was.
	if got := c.meanLatency(); got != 50500*time.Microsecond {
		t.Fatalf("mean after percentile queries = %v, want 50.5ms", got)
	}
}

func TestEmptyCollectorSafe(t *testing.T) {
	c := newCollector(1 << 20)
	if c.meanLatency() != 0 || c.percentile(99) != 0 || c.throughput(time.Second) != 0 {
		t.Fatal("empty collector should report zeros")
	}
	if c.throughput(0) != 0 {
		t.Fatal("zero window must not divide by zero")
	}
}

func TestSampleCap(t *testing.T) {
	c := newCollector(10)
	for i := 0; i < 100; i++ {
		c.record(0, time.Millisecond)
	}
	if c.completed() != 100 {
		t.Fatalf("counter stopped at cap: %d", c.completed())
	}
	if len(c.latencies) != 10 {
		t.Fatalf("stored %d samples, cap was 10", len(c.latencies))
	}
}

// TestPercentileEdgeCases covers the empty-collector and single-sample
// queries the harness can hit on short or degraded runs.
func TestPercentileEdgeCases(t *testing.T) {
	c := newCollector(1 << 20)
	if c.percentile(50) != 0 || c.percentile(99) != 0 || c.meanLatency() != 0 {
		t.Fatal("empty collector should answer zero percentiles")
	}
	c.record(0, 7*time.Millisecond)
	for _, p := range []float64{0.1, 50, 99, 100} {
		if got := c.percentile(p); got != 7*time.Millisecond {
			t.Fatalf("single-sample p%v = %v", p, got)
		}
	}
}

// TestTruncationIsSignaled checks that sample loss beyond maxSamples is
// visible instead of silently skewing percentiles.
func TestTruncationIsSignaled(t *testing.T) {
	c := newCollector(4)
	for i := 0; i < 10; i++ {
		c.record(0, time.Duration(i)*time.Millisecond)
	}
	if !c.truncated || len(c.latencies) != 4 {
		t.Fatalf("truncated=%v sampled=%d", c.truncated, len(c.latencies))
	}
	if c.completed() != 10 {
		t.Fatalf("completed = %d", c.completed())
	}
	clean := newCollector(4)
	clean.record(0, time.Millisecond)
	if clean.truncated {
		t.Fatal("a collector under its cap reported truncation")
	}
}
