package harness

import (
	"testing"
)

// TestReadLeaseContrast is the headline check of the leased-read fast path:
// under the read-heavy mix, the same deployment with the lease on must
// answer the bulk of its reads at the primary (LeaseReads dominating), push
// its leased-read median far below the consensus-read median of the
// lease-off run, and come out ahead on aggregate throughput. All of it is
// emergent from the cost model — a leased read is one authenticated lookup,
// a consensus read is a full protocol round.
func TestReadLeaseContrast(t *testing.T) {
	const scale = Scale(8)
	for _, proto := range []string{"Flexi-BFT"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			on, _, err := ReadLeasePoint(Env{Scale: scale}, proto, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			off, _, err := ReadLeasePoint(Env{Scale: scale}, proto, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if off.Completed == 0 || on.Completed == 0 {
				t.Fatalf("runs committed nothing: on=%d off=%d", on.Completed, off.Completed)
			}
			if off.LeaseReads != 0 {
				t.Fatalf("lease off but %d reads took the fast path", off.LeaseReads)
			}
			if on.LeaseReads == 0 {
				t.Fatal("lease on but no reads took the fast path")
			}
			// The mix is 95% reads: the fast path should carry most of the
			// completed operations, not a token few.
			if frac := float64(on.LeaseReads) / float64(on.Completed); frac < 0.5 {
				t.Fatalf("leased reads carried only %.0f%% of completions", frac*100)
			}
			// Leased read median well below the consensus read median (the
			// lease-off run's p50 is almost all reads under this mix).
			if on.LeaseReadP50 >= off.P50Lat/3 {
				t.Fatalf("leased read p50 %v not well below consensus p50 %v",
					on.LeaseReadP50, off.P50Lat)
			}
			if on.Throughput <= off.Throughput {
				t.Fatalf("lease on did not raise read-heavy throughput: %.0f <= %.0f",
					on.Throughput, off.Throughput)
			}
			t.Logf("%s: on=%.0f txn/s (leased p50 %v, %d leased/%d total)  off=%.0f txn/s (p50 %v)",
				proto, on.Throughput, on.LeaseReadP50, on.LeaseReads, on.Completed,
				off.Throughput, off.P50Lat)
		})
	}
}
