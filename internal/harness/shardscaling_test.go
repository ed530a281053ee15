package harness

import (
	"testing"
)

// TestShardScalingContrast is the headline check of the sharded layer: at 4
// shards — all groups running in ONE shared discrete-event kernel on one
// set of machines — the FlexiTrust protocols' aggregate throughput must
// scale to at least 3× their single-group throughput, while the
// sequential-trusted-counter protocols stay within 1.5×. The contrast is
// emergent: co-hosted MinBFT/MinZZ groups drain and retarget each
// machine's single host-sequenced USIG stream every time they alternate on
// it, while FlexiTrust's per-group namespaced AppendF counters interleave
// freely (see sim.Machine and aggregate.go).
func TestShardScalingContrast(t *testing.T) {
	const scale = Scale(8)
	cases := []struct {
		name     string
		min, max float64
	}{
		{"Flexi-BFT", 3.0, 0},
		{"Flexi-ZZ", 3.0, 0},
		{"MinBFT", 0, 1.5},
		{"MinZZ", 0, 1.5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			one, _, err := ShardScalingPoint(Env{Scale: scale}, tc.name, 1)
			if err != nil {
				t.Fatal(err)
			}
			four, _, err := ShardScalingPoint(Env{Scale: scale}, tc.name, 4)
			if err != nil {
				t.Fatal(err)
			}
			if one.Throughput <= 0 {
				t.Fatalf("%s: single-group run committed nothing", tc.name)
			}
			ratio := four.Throughput / one.Throughput
			t.Logf("%-10s 1-shard=%.0f txn/s  4-shard=%.0f txn/s  ratio=%.2f",
				tc.name, one.Throughput, four.Throughput, ratio)
			if tc.min > 0 && ratio < tc.min {
				t.Fatalf("%s: 4-shard speedup %.2f below %.1f", tc.name, ratio, tc.min)
			}
			if tc.max > 0 && ratio > tc.max {
				t.Fatalf("%s: 4-shard speedup %.2f above %.1f (should be flat)", tc.name, ratio, tc.max)
			}
		})
	}
}

// TestShardScalingGroupsDistinct guards the per-group seeding: in one
// shared-kernel run, distinct groups must not be clones of each other —
// their workloads and jitter draw from independent sub-seeded streams, so
// per-group completion counts should differ.
func TestShardScalingGroupsDistinct(t *testing.T) {
	d, err := Env{Scale: 8}.deploy("shard", "Flexi-BFT", 3, shardScalingClientsPerShard, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	per, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 {
		t.Fatalf("want 3 per-group results, got %d", len(per))
	}
	allEqual := true
	for _, r := range per[1:] {
		if r != per[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("all groups produced identical results %+v; sub-seeding not wired", per[0])
	}
}
