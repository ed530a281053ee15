// Benchmarks regenerating every figure and table in the paper's evaluation
// (Section 9). Each Benchmark runs the corresponding experiment through the
// discrete-event harness and reports client-observed throughput in virtual
// time as txn/s metrics; cmd/benchrunner produces the full tables at
// publication scale.
//
// Scale note: benchmarks default to reduced client counts and measurement
// windows (the full sweeps take minutes); run cmd/benchrunner -full for the
// paper-scale parameters. The comparative shapes are identical.
package flexitrust

import (
	"fmt"
	"testing"

	"flexitrust/internal/crypto"
	"flexitrust/internal/harness"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// benchScale shrinks measurement windows for benchmark runs.
const benchScale = harness.Scale(4)

// runRow runs a row of harness.Experiments at benchScale, its protocols and
// axis cut when given, logs the table and reports the last point's
// throughput.
func runRow(b *testing.B, name string, protocols []string, axis ...int) {
	b.Helper()
	e, err := harness.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	if protocols != nil {
		e.Protocols = protocols
	}
	if axis != nil {
		e.Axis = axis
	}
	for i := 0; i < b.N; i++ {
		t, err := e.Run(harness.Env{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + t.String())
		b.ReportMetric(t.Points[len(t.Points)-1].Result.Throughput, "txn/s")
	}
}

// BenchmarkFig5_TrustedCounterCosts regenerates Figure 5: PBFT with a single
// worker thread and trusted counter / signature-attestation accesses
// injected into its phases (bars a–g).
func BenchmarkFig5_TrustedCounterCosts(b *testing.B) { runRow(b, "fig5", nil) }

// BenchmarkFig6i_ThroughputLatency regenerates Figure 6(i): throughput and
// latency as the client count grows, f=8, all ten protocol variants.
func BenchmarkFig6i_ThroughputLatency(b *testing.B) { runRow(b, "fig6i", nil, 4000, 20000, 48000) }

// BenchmarkFig6ii_Scalability regenerates Figure 6(ii)/(iii): f = 4..32.
func BenchmarkFig6ii_Scalability(b *testing.B) { runRow(b, "fig6ii", nil, 4, 8, 16) }

// BenchmarkFig6iv_Batching regenerates Figure 6(iv)/(v): batch size sweep.
func BenchmarkFig6iv_Batching(b *testing.B) { runRow(b, "fig6iv", nil, 10, 100, 1000) }

// BenchmarkFig6vi_WAN regenerates Figure 6(vi)/(vii): replicas across 1..6
// regions at f=20.
func BenchmarkFig6vi_WAN(b *testing.B) {
	if testing.Short() {
		b.Skip("WAN sweep is expensive")
	}
	runRow(b, "fig6vi", nil, 1, 3, 6)
}

// BenchmarkFig7_ReplicaFailure regenerates Figure 7: one crashed non-primary
// replica; Flexi-ZZ keeps its fast path, MinZZ and Zyzzyva fall to theirs.
func BenchmarkFig7_ReplicaFailure(b *testing.B) { runRow(b, "fig7", nil, 4, 8) }

// BenchmarkFig8_TCLatencySweep regenerates Figure 8: peak throughput at 97
// replicas as trusted-counter access latency grows (the axis is in µs).
func BenchmarkFig8_TCLatencySweep(b *testing.B) {
	if testing.Short() {
		b.Skip("97-replica sweep is expensive")
	}
	runRow(b, "fig8", nil, 1000, 3000, 10000)
}

// BenchmarkFig9_PerMachine regenerates Figure 9: total throughput divided by
// replica count, Flexi-ZZ (3f+1) vs MinZZ (2f+1).
func BenchmarkFig9_PerMachine(b *testing.B) { runRow(b, "fig9", nil, 4, 8) }

// BenchmarkShardedThroughput measures aggregate throughput of S co-located
// consensus groups, all hosted in one shared discrete-event kernel on one
// set of machines: FlexiBFT scales near-linearly (one primary-side
// trusted-counter access per consensus in a per-group namespace, so groups
// interleave like parallel instances), MinBFT stays flat (every alternation
// on a machine's host-sequenced USIG stream drains and retargets it, so
// co-hosted groups time-share the machine's TC timeline). Every shared-kernel
// point runs with the observability layer attached at its default sampling,
// since the row's clean-run check reads the audit stream and alert rules.
func BenchmarkShardedThroughput(b *testing.B) {
	protos := []struct{ short, name string }{
		{"flexibft", "Flexi-BFT"},
		{"minbft", "MinBFT"},
	}
	for _, p := range protos {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sx%d", p.short, shards), func(b *testing.B) {
				runRow(b, "shard", []string{p.name}, shards)
			})
		}
	}
}

// --- Microbenchmarks for the substrates (allocation profiles) ---

// BenchmarkTrustedAppendF measures the FlexiTrust counter primitive.
func BenchmarkTrustedAppendF(b *testing.B) {
	auth := trusted.NewHMACAuthority(1, 1)
	tc := trusted.New(trusted.Config{Host: 0, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(0)})
	d := crypto.HashBytes([]byte("payload"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.AppendF(0, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttestationVerify measures attestation verification.
func BenchmarkAttestationVerify(b *testing.B) {
	auth := trusted.NewHMACAuthority(1, 4)
	tc := trusted.New(trusted.Config{Host: 2, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(2)})
	att, _ := tc.AppendF(0, crypto.HashBytes([]byte("x")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !auth.Verify(att) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkBatchDigest measures request-batch digesting (100 requests, the
// paper's default batch).
func BenchmarkBatchDigest(b *testing.B) {
	reqs := make([]*types.ClientRequest, 100)
	for i := range reqs {
		reqs[i] = &types.ClientRequest{Client: types.ClientID(i), ReqNo: 1, Op: []byte("12345678901234567890")}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crypto.BatchDigest(reqs)
	}
}

// BenchmarkKVStoreApply measures state-machine execution.
func BenchmarkKVStoreApply(b *testing.B) {
	store := kvstore.New(600_000)
	op := (&kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("12345678")}).Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Apply(op)
	}
}
