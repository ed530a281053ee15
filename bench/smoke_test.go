package main

import (
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload briefly, tracing off and traced,
// and checks the plumbing: every metric BENCHMARK.json names is reported,
// finite and tagged with its declared unit, the correctness checks pass, a
// trace file is written, and the layer separation the workloads were chosen
// for is visible in the numbers. So short a window cannot support a p99, so
// that one check is allowed to fail here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters; skipped under -short")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloads))
	}
	outDir := t.TempDir()
	for _, w := range spec.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			t.Fatalf("workload %s is declared in BENCHMARK.json but not implemented", w.Name)
		}
		// The failover window has to outlast the 2 s outage to see service
		// resume; everything else needs only a moment of load.
		seconds := 0.3
		if w.Name == "hub_failover" {
			seconds = 3
		}
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // most of a run is waiting on timers, not computing
				p := params{seed: 7, seconds: seconds, traced: traced, outDir: outDir, protocol: "Flexi-BFT", setups: 1}
				out, err := runWorkload(spec, def, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range spec.metrics(traced) {
					got, ok := out.Result.Metrics[m.Name]
					switch {
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Unit != m.Unit || got.Unit == "":
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for _, c := range out.checks {
					if c.err != nil && c.name != checkP99Support {
						t.Errorf("check %s: %v", c.name, c.err)
					}
				}
				if out.Result.Attempted < 1 || out.Result.Failed != 0 {
					t.Errorf("attempted=%d failed=%d", out.Result.Attempted, out.Result.Failed)
				}
				if !traced {
					for _, m := range spec.EndToEnd {
						if out.Result.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, out.Result.Metrics[m.Name].Value)
						}
					}
					return
				}
				if _, err := os.Stat(out.traceFile); err != nil {
					t.Errorf("trace file: %v", err)
				}
				separation(t, w.Name, out.Result.Metrics)
			})
		}
	}
}

// separation asserts, per workload, the per-layer readings that tell the
// workloads apart.
func separation(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	positive := func(names ...string) {
		for _, n := range names {
			if m[n].Value <= 0 {
				t.Errorf("%s on %s = %v, want > 0", n, workload, m[n].Value)
			}
		}
	}
	equals := func(name string, want float64) {
		if m[name].Value != want {
			t.Errorf("%s on %s = %v, want %v", name, workload, m[name].Value, want)
		}
	}
	// Exact counts only where the count is exact by construction: a test
	// host busy with other packages can stall a replica into a spurious view
	// change, which moves view_changes and accesses_per_batch.
	switch workload {
	case "hub_write":
		equals("wire.bytes_per_op", 0)
		positive("trusted.accesses_per_batch", "transport.msgs_per_op", "crypto.sig_verifies_per_op", "engine.batch_fill", "wire.decode_ns_per_msg")
	case "tcp_write":
		positive("wire.bytes_per_op", "wire.response_frame_bytes", "transport.send_ns_per_msg")
	case "shard_read":
		positive("shard.lease_hit_ratio", "shard.lease_read_us_p50", "shard.lease_grants_per_s")
		equals("txn.accesses_per_decision", 0)
	case "shard_txn":
		equals("txn.accesses_per_decision", 1)
		equals("shard.lease_hit_ratio", 0)
		positive("txn.prepare_ms_p50", "txn.drive_ms_p50", "shard.session_overhead_us_p50")
	case "hub_failover":
		positive("engine.view_changes", "unavail_ms")
	}
	positive("crypto.sign_ns", "crypto.verify_ns", "trusted.appendf_ns", "protocols.msgs_per_batch",
		"kvstore.apply_ns_per_op", "transport.rtt_us_hub", "transport.rtt_us_tcp", "proc.heap_peak_mb",
		"sim.events_per_s", "sim.allocs_per_event")
}
