package harness

import (
	"encoding/json"
	"errors"
	"fmt"
)

// BENCH trajectory: a small, fixed matrix of the shared-kernel rows of the
// experiment table — shard scaling, cross-shard transactions, live
// rebalancing, leased reads A/B, windowed attestation and primary failover
// — run at pinned seeds and scales and emitted as a machine-readable
// baseline (BENCH_baseline.json at the repo root, regenerated with
// `benchrunner -bench-out`). The file records throughput, p50/p99 latency
// and attested-access counts per configuration so a future change can diff
// itself against the recorded numbers; ValidateBench checks the schema plus
// the invariants each entry's row declares, which hold regardless of
// machine speed (exactly one access per placement change, one per
// transaction decision).

// BenchSchema identifies the baseline file format.
const BenchSchema = "flexitrust-bench/v1"

// BenchEntry is one measured configuration of the baseline matrix. Latency
// fields are nanoseconds; absolute numbers are machine-dependent, while the
// attested-access fields are exact invariants.
type BenchEntry struct {
	// Experiment is "shard", "txn", "rebalance", "failover", "reads" or
	// "window".
	Experiment string `json:"experiment"`
	Protocol   string `json:"protocol"`
	Shards     int    `json:"shards"`
	// AttestWindow is the windowed-attestation window size (window only):
	// 1 is the per-batch baseline arm, >1 the amortized arm.
	AttestWindow int `json:"attest_window,omitempty"`
	// TxnFraction is the cross-shard transaction fraction (txn only).
	TxnFraction float64 `json:"txn_fraction,omitempty"`
	// Lease marks the lease-on arm of the reads A/B; LeaseReads counts the
	// reads the fast path served inside the measurement window and
	// LeaseReadP50Ns their median latency (reads only).
	Lease          bool   `json:"lease,omitempty"`
	LeaseReads     uint64 `json:"lease_reads,omitempty"`
	LeaseReadP50Ns int64  `json:"lease_read_p50_ns,omitempty"`
	// Throughput is committed operations (shard), attested transaction
	// decisions (txn) or background writes (rebalance/failover) per second.
	Throughput float64 `json:"throughput_per_s"`
	P50Ns      int64   `json:"p50_ns,omitempty"`
	P99Ns      int64   `json:"p99_ns,omitempty"`
	Completed  uint64  `json:"completed"`
	// AttestedAccesses counts trusted-counter accesses: the whole-run
	// consensus total for shard entries (via the audit stream), the
	// decision total for txn entries (== Decisions), and the placement
	// change's cost for rebalance/failover entries (exactly 1).
	AttestedAccesses uint64 `json:"attested_accesses"`
	// Decisions counts attested 2PC decisions (txn only).
	Decisions uint64 `json:"decisions,omitempty"`
	// MigrationWindowNs is freeze→flip (rebalance only).
	MigrationWindowNs int64 `json:"migration_window_ns,omitempty"`
	// UnavailableForNs is crash→first probe completion (failover only).
	UnavailableForNs int64 `json:"unavailable_for_ns,omitempty"`
	// Truncated marks latency percentiles estimated from a capped sample
	// set (sim.Results.Truncated).
	Truncated bool `json:"truncated,omitempty"`
}

// BenchBaseline is the recorded perf baseline: the schema tag, the run's
// pinned parameters and one entry per configuration.
type BenchBaseline struct {
	Schema string `json:"schema"`
	// Scale is the window divisor the matrix ran at (see Scale); Seed the
	// master seed every configuration derived its randomness from.
	Scale   int          `json:"scale"`
	Seed    int64        `json:"seed"`
	Entries []BenchEntry `json:"entries"`
}

// CollectBench runs the baseline matrix at the given scale and the
// harness's pinned default seed. Each matrix entry cuts a shared-kernel row
// of the experiment table to the baseline's shard counts and, where set,
// protocols and inner values; every point passes its row's invariants
// before it is recorded.
func CollectBench(scale Scale) (*BenchBaseline, error) {
	// The paper's headline protocol against the strongest host-sequenced
	// baseline; the window row keeps its two windowed protocols.
	pair := []string{"Flexi-BFT", "MinBFT"}
	matrix := []struct {
		row           string
		protocols     []string
		shards, inner []int
	}{
		{"shard", pair, []int{1, 4}, nil},
		{"txn", pair, []int{4}, []int{20}},
		{"rebalance", pair, []int{2}, nil},
		{"reads", pair, []int{4}, nil},
		{"window", nil, []int{1}, nil},
		{"failover", pair, []int{2}, nil},
	}
	b := &BenchBaseline{Schema: BenchSchema, Scale: int(scale), Seed: DefaultOptions().Seed}
	for _, m := range matrix {
		e, err := Lookup(m.row)
		if err != nil {
			return nil, err
		}
		e.Axis = m.shards
		if m.protocols != nil {
			e.Protocols = m.protocols
		}
		if m.inner != nil {
			e.Inner = m.inner
		}
		t, err := e.Run(Env{Scale: scale})
		if err != nil {
			return nil, fmt.Errorf("bench %w", err)
		}
		for _, p := range t.Points {
			b.Entries = append(b.Entries, p.Entry)
		}
	}
	return b, nil
}

// JSON renders the baseline in the checked-in format (indented, trailing
// newline).
func (b *BenchBaseline) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateBench parses a baseline file and checks the schema plus the
// machine-independent invariants: known experiment names, positive
// throughput, exactly one attested access per placement change, and
// decisions == attested accesses for the transaction entries.
func ValidateBench(data []byte) (*BenchBaseline, error) {
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("bench baseline: schema %q, want %q", b.Schema, BenchSchema)
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("bench baseline: no entries")
	}
	rows := make(map[string]Experiment)
	for _, e := range Experiments() {
		if e.check != nil {
			rows[e.Name] = e
		}
	}
	for i, e := range b.Entries {
		where := fmt.Sprintf("entry %d (%s/%s/S=%d)", i, e.Experiment, e.Protocol, e.Shards)
		row, ok := rows[e.Experiment]
		if !ok {
			return nil, fmt.Errorf("bench baseline: %s: unknown experiment", where)
		}
		if err := row.checkEntry(e); err != nil {
			return nil, fmt.Errorf("bench baseline: %s: %w", where, err)
		}
	}
	if err := validateWindowPairs(b.Entries); err != nil {
		return nil, err
	}
	return &b, nil
}

// checkEntry applies the checks every BENCH entry must pass, then the row's
// own invariant.
func (e Experiment) checkEntry(b BenchEntry) error {
	switch {
	case b.Protocol == "":
		return errors.New("empty protocol")
	case b.Shards <= 0:
		return fmt.Errorf("shards %d", b.Shards)
	case b.Throughput <= 0:
		return fmt.Errorf("throughput %.1f", b.Throughput)
	}
	return e.check(b)
}

// validateWindowPairs enforces the windowed-attestation amortization
// invariant across entries: for each (protocol, shards) with both a
// per-batch arm (window 1) and an amortized arm (window W>1), the amortized
// arm must spend at least W/2-fold fewer attested accesses per committed
// request. The ratio is a property of the protocol's counter discipline
// under the pinned seed, not of machine speed, so it belongs with the other
// machine-independent invariants.
func validateWindowPairs(entries []BenchEntry) error {
	type key struct {
		proto  string
		shards int
	}
	perBatch := make(map[key]float64)
	for _, e := range entries {
		if e.Experiment == "window" && e.AttestWindow == 1 {
			perBatch[key{e.Protocol, e.Shards}] = float64(e.AttestedAccesses) / float64(e.Completed)
		}
	}
	for _, e := range entries {
		if e.Experiment != "window" || e.AttestWindow <= 1 {
			continue
		}
		base, ok := perBatch[key{e.Protocol, e.Shards}]
		if !ok {
			continue // no baseline arm recorded for this configuration
		}
		perOp := float64(e.AttestedAccesses) / float64(e.Completed)
		want := float64(e.AttestWindow) / 2
		if perOp <= 0 || base/perOp < want {
			return fmt.Errorf("bench baseline: window %s/S=%d/W=%d amortizes %.1fx, want >= %.1fx",
				e.Protocol, e.Shards, e.AttestWindow, base/perOp, want)
		}
	}
	return nil
}
