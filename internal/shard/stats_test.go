package shard

import (
	"context"
	"testing"
	"time"

	"flexitrust/internal/obs"
)

// commitOnEach puts counts[g] keys owned by group g through one session.
func commitOnEach(t *testing.T, c *Cluster, counts []int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess := c.Session(1)
	for g, n := range counts {
		for _, k := range keysOnShard(c.Placement(), g, n) {
			if err := sess.Put(ctx, k, []byte("v")); err != nil {
				t.Fatalf("put key %d on group %d: %v", k, g, err)
			}
		}
	}
}

// TestGroupLatencyIsRecordedOnce: with an observer attached, each group's
// one latency record is the registry's shard_op_latency_ns{group=g}
// histogram, so its count is the group's committed count, and the cluster's
// numbers are the fold of the groups' (sums, commit-weighted mean, worst
// p99).
func TestGroupLatencyIsRecordedOnce(t *testing.T) {
	cfg := testConfig(2)
	cfg.Obs = obs.New(obs.Config{})
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	counts := []int{5, 9}
	commitOnEach(t, c, counts)

	st := c.Stats()
	var committed, viewChanges uint64
	var worstP99 time.Duration
	var latSum float64
	for g, gs := range st.PerShard {
		h := cfg.Obs.Metrics().Histogram(obs.GroupLabel(obs.MShardOpLatency, g))
		if h.Count() != gs.Committed || gs.Committed != uint64(counts[g]) {
			t.Fatalf("group %d: histogram count %d, stats committed %d, want %d",
				g, h.Count(), gs.Committed, counts[g])
		}
		committed += gs.Committed
		viewChanges += gs.ViewChanges
		worstP99 = max(worstP99, gs.P99Lat)
		latSum += float64(gs.Committed) * float64(gs.MeanLat)
	}
	if st.Committed != committed {
		t.Fatalf("cluster committed %d, groups sum to %d", st.Committed, committed)
	}
	if st.P99Lat != worstP99 || st.P99Lat == 0 {
		t.Fatalf("cluster p99 %v, worst group p99 %v", st.P99Lat, worstP99)
	}
	if st.ViewChanges != viewChanges {
		t.Fatalf("cluster view changes %d, groups sum to %d", st.ViewChanges, viewChanges)
	}
	if want := time.Duration(latSum / float64(committed)); st.MeanLat != want {
		t.Fatalf("cluster mean %v, commit-weighted group mean %v", st.MeanLat, want)
	}
	for _, se := range c.ObserveSnapshot().Shards {
		if se.LatencySamples != counts[se.Shard] || se.DroppedSamples != 0 || se.Truncated {
			t.Fatalf("shard export %+v: want %d samples, none dropped", se, counts[se.Shard])
		}
	}
}

// TestStatsWithoutObserver: with observability off each group records into
// a private histogram, so Stats still reports latency.
func TestStatsWithoutObserver(t *testing.T) {
	c, err := NewCluster(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	commitOnEach(t, c, []int{3, 4})
	st := c.Stats()
	if st.Committed != 7 || st.MeanLat == 0 || st.P99Lat == 0 {
		t.Fatalf("stats without an observer: %+v", st)
	}
}
