package harness

import (
	"bytes"
	"os"
	"testing"
)

// TestBenchBaselineFile validates the checked-in baseline at the repo root:
// parseable, right schema, and every attested-access invariant holding.
func TestBenchBaselineFile(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("read checked-in baseline: %v", err)
	}
	b, err := ValidateBench(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) < 8 {
		t.Fatalf("baseline has %d entries, want the full matrix (>=8)", len(b.Entries))
	}
	seen := map[string]bool{}
	for _, e := range b.Entries {
		seen[e.Experiment] = true
	}
	for _, exp := range []string{"shard", "txn", "rebalance", "failover"} {
		if !seen[exp] {
			t.Errorf("baseline missing experiment %q", exp)
		}
	}
}

// TestValidateBenchRejects exercises the invariant checks on corrupt input.
func TestValidateBenchRejects(t *testing.T) {
	cases := []struct {
		name, json string
	}{
		{"not json", `{`},
		{"wrong schema", `{"schema":"flexitrust-bench/v0","entries":[]}`},
		{"no entries", `{"schema":"flexitrust-bench/v1","entries":[]}`},
		{"unknown experiment", `{"schema":"flexitrust-bench/v1","entries":[
			{"experiment":"nope","protocol":"Flexi-BFT","shards":1,"throughput_per_s":1,"completed":1,"attested_accesses":1}]}`},
		{"zero throughput", `{"schema":"flexitrust-bench/v1","entries":[
			{"experiment":"shard","protocol":"Flexi-BFT","shards":1,"throughput_per_s":0,"completed":0,"attested_accesses":1}]}`},
		{"txn decision/access mismatch", `{"schema":"flexitrust-bench/v1","entries":[
			{"experiment":"txn","protocol":"Flexi-BFT","shards":4,"throughput_per_s":1,"completed":1,"attested_accesses":3,"decisions":2}]}`},
		{"rebalance double access", `{"schema":"flexitrust-bench/v1","entries":[
			{"experiment":"rebalance","protocol":"Flexi-BFT","shards":2,"throughput_per_s":1,"completed":1,"attested_accesses":2}]}`},
		{"failover zero access", `{"schema":"flexitrust-bench/v1","entries":[
			{"experiment":"failover","protocol":"Flexi-BFT","shards":2,"throughput_per_s":1,"completed":1,"attested_accesses":0}]}`},
	}
	for _, tc := range cases {
		if _, err := ValidateBench([]byte(tc.json)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

// TestCollectBenchRoundTrip runs the matrix at quick scale and checks its
// own output validates — the -bench-out / -bench-validate contract — and
// that it is byte-identical to the checked-in baseline: the simulator is
// deterministic per seed, so any difference is a behaviour change. A
// deliberate one is recorded with
//
//	go run ./cmd/benchrunner -bench-out BENCH_baseline.json -scale 16
func TestCollectBenchRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("bench matrix run in -short mode")
	}
	b, err := CollectBench(Scale(16))
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateBench(out)
	if err != nil {
		t.Fatalf("self-emitted baseline fails validation: %v", err)
	}
	if got.Seed != 1 {
		t.Fatalf("baseline seed %d, want the pinned default 1", got.Seed)
	}

	recorded, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("read checked-in baseline: %v", err)
	}
	if bytes.Equal(out, recorded) {
		return
	}
	want, err := ValidateBench(recorded)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got.Entries {
		if i >= len(want.Entries) {
			t.Fatalf("run has %d entries, BENCH_baseline.json %d; first extra: %+v", len(got.Entries), len(want.Entries), e)
		}
		if e != want.Entries[i] {
			t.Fatalf("entry %d differs from BENCH_baseline.json\n got: %+v\nwant: %+v", i, e, want.Entries[i])
		}
	}
	t.Fatalf("run differs from BENCH_baseline.json outside the common entries (got %d entries, scale %d; recorded %d, scale %d)",
		len(got.Entries), got.Scale, len(want.Entries), want.Scale)
}
