package harness

import "testing"

// TestTxnScalingContrast is the acceptance check of the cross-shard
// transaction layer on the shared kernel, at 4 co-located shards and a 20%
// multi-shard mix:
//
//   - FlexiBFT transactions degrade gracefully: mean latency to the
//     attested decision point stays within 2x the single-shard write
//     latency (the prepares ride one concurrent consensus round and the
//     decision access interleaves freely on the shared component).
//   - The commit decision always costs exactly one attested counter
//     access, for both protocols (measured, not asserted: the driver mints
//     real attestations on the machines' components).
//   - MinBFT's host-sequenced commit point is measurably worse under the
//     same load: higher latency ratio and materially lower transaction
//     throughput, because every decision time-shares each machine's
//     attested stream with the co-hosted groups.
func TestTxnScalingContrast(t *testing.T) {
	const (
		scale    = Scale(8)
		shards   = 4
		fraction = 0.2
	)
	flexi, err := TxnScalingPoint(Env{Scale: scale}, "Flexi-BFT", shards, fraction)
	if err != nil {
		t.Fatal(err)
	}
	min, err := TxnScalingPoint(Env{Scale: scale}, "MinBFT", shards, fraction)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []TxnPoint{flexi, min} {
		t.Logf("%-10s txn=%6.0f txn/s lat=%v  write lat=%v  ratio=%.2f  decisions=%d accesses=%d aborts=%d",
			p.Protocol, p.Txn.Throughput, p.Txn.MeanLat, p.WriteMeanLat,
			p.LatencyRatio(), p.Txn.Decisions, p.Txn.TCAccesses, p.Txn.Aborted)
		if p.Txn.Decisions == 0 || p.Txn.Completed == 0 {
			t.Fatalf("%s: no transactions decided", p.Protocol)
		}
		if p.Txn.TCAccesses != p.Txn.Decisions {
			t.Fatalf("%s: %d attested accesses for %d decisions — the commit point must cost exactly one",
				p.Protocol, p.Txn.TCAccesses, p.Txn.Decisions)
		}
		if p.Txn.MultiShard == 0 {
			t.Fatalf("%s: no multi-shard transactions at %.0f%% mix", p.Protocol, fraction*100)
		}
		if p.Txn.Aborted != 0 {
			t.Fatalf("%s: %d aborts with conflict-free keys", p.Protocol, p.Txn.Aborted)
		}
	}
	// The headline acceptance bound: FlexiBFT cross-shard transactions at
	// a 20% multi-shard mix within 2x of single-shard write latency.
	if r := flexi.LatencyRatio(); r <= 0 || r > 2.0 {
		t.Fatalf("Flexi-BFT txn/write latency ratio %.2f exceeds 2.0", r)
	}
	// And the contrast: MinBFT's host-sequenced commit point is worse on
	// both axes.
	if min.LatencyRatio() <= flexi.LatencyRatio() {
		t.Fatalf("MinBFT ratio %.2f not above Flexi-BFT's %.2f",
			min.LatencyRatio(), flexi.LatencyRatio())
	}
	if flexi.Txn.Throughput < 1.5*min.Txn.Throughput {
		t.Fatalf("Flexi-BFT txn throughput %.0f not ≥1.5x MinBFT's %.0f",
			flexi.Txn.Throughput, min.Txn.Throughput)
	}
}

// TestTxnScalingGracefulDegradation: raising the multi-shard mix from 0 to
// 50%% must not collapse FlexiBFT transaction throughput (prepares to the
// extra shard run concurrently; the commit point costs the same single
// access either way).
func TestTxnScalingGracefulDegradation(t *testing.T) {
	base, err := TxnScalingPoint(Env{Scale: 8}, "Flexi-BFT", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := TxnScalingPoint(Env{Scale: 8}, "Flexi-BFT", 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mix 0%%: %6.0f txn/s   mix 50%%: %6.0f txn/s", base.Txn.Throughput, mixed.Txn.Throughput)
	if base.Txn.Throughput <= 0 {
		t.Fatal("baseline committed nothing")
	}
	if mixed.Txn.Throughput < 0.8*base.Txn.Throughput {
		t.Fatalf("50%% multi-shard mix collapsed throughput: %.0f vs %.0f",
			mixed.Txn.Throughput, base.Txn.Throughput)
	}
}
