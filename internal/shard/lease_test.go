package shard

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// leaseConfig is testConfig with the leased linearizable read fast path on
// and a real observer attached so tests can assert which path served.
func leaseConfig(shards int) Config {
	cfg := testConfig(shards)
	cfg.Group.Engine.ReadLease = true
	cfg.Obs = obs.New(obs.Config{SampleRate: -1})
	return cfg
}

// leaseFailoverConfig is leaseConfig tuned like failoverConfig: snappy view
// changes and a health monitor fast enough for tests to observe transitions.
func leaseFailoverConfig(shards int, stallAfter time.Duration) Config {
	cfg := leaseConfig(shards)
	cfg.Group.Engine.ViewChangeTimeout = 150 * time.Millisecond
	cfg.Group.ClientRetry = 200 * time.Millisecond
	cfg.Group.Clients = []types.ClientID{1, 2, 3, 4}
	cfg.Health = HealthConfig{StallAfter: stallAfter, ProbeEvery: time.Millisecond}
	return cfg
}

// TestLeasedGetFastPath: with the lease on, repeated single-key Gets are
// answered by the owning primary without consensus — the lease-read counter
// advances, the leased latency histogram fills, and the granting primary's
// tracker reports an active lease. Values stay correct throughout.
func TestLeasedGetFastPath(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	want := make(map[uint64][]byte)
	var keys []uint64
	for s := 0; s < 2; s++ {
		for i, k := range freshKeysOnShard(c.Placement(), s, 3, 50_000) {
			v := []byte(fmt.Sprintf("lease-s%d-%d", s, i))
			if err := sess.Insert(ctx, k, v); err != nil {
				t.Fatalf("insert: %v", err)
			}
			want[k] = v
			keys = append(keys, k)
		}
	}
	for round := 0; round < 5; round++ {
		for _, k := range keys {
			got, err := sess.Get(ctx, k)
			if err != nil {
				t.Fatalf("get key %d: %v", k, err)
			}
			if !bytes.Equal(got, want[k]) {
				t.Fatalf("get key %d = %q, want %q", k, got, want[k])
			}
		}
	}

	m := c.obs.Metrics()
	reads := m.Counter(obs.MLeaseReads).Value()
	if reads == 0 {
		t.Fatal("no reads served on the leased fast path")
	}
	if n := m.Histogram(obs.MLeaseReadLatency).Count(); n == 0 {
		t.Fatal("leased read latency histogram empty")
	}
	t.Logf("leased reads served: %d (latency samples %d)",
		reads, m.Histogram(obs.MLeaseReadLatency).Count())
	for g := 0; g < 2; g++ {
		if epoch, active := c.Group(g).Runtime().Node(0).LeaseState(); !active || epoch == 0 {
			t.Fatalf("group %d primary lease tracker epoch=%d active=%v, want active grant", g, epoch, active)
		}
	}
	// A missing key resolves through the same fast path without error.
	miss := freshKeysOnShard(c.Placement(), 0, 10, 50_000)[9]
	got, err := sess.Get(ctx, miss)
	if err != nil || string(got) != "NOTFOUND" {
		t.Fatalf("get missing key = %q, %v; want NOTFOUND", got, err)
	}
}

// TestMultiGetLeasedSingleShardShortCircuit: a MultiGet whose keys all live
// on one healthy leased shard must skip the cross-shard fan-out machinery —
// the fan-out histogram records exactly one observation of 1 — while a
// cross-shard MultiGet still takes the general path (fan-out 2). Regression
// test for the single-shard case allocating full fan-out state.
func TestMultiGetLeasedSingleShardShortCircuit(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	want := make(map[uint64][]byte)
	single := freshKeysOnShard(c.Placement(), 0, 5, 50_000)
	for i, k := range single {
		v := []byte(fmt.Sprintf("one-shard-%d", i))
		if err := sess.Insert(ctx, k, v); err != nil {
			t.Fatalf("insert: %v", err)
		}
		want[k] = v
	}
	other := freshKeysOnShard(c.Placement(), 1, 1, 50_000)[0]
	if err := sess.Insert(ctx, other, []byte("other-shard")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	want[other] = []byte("other-shard")

	readsBefore := c.obs.Metrics().Counter(obs.MLeaseReads).Value()
	vals, vers, err := sess.MultiGet(ctx, single)
	if err != nil {
		t.Fatalf("single-shard multiget: %v", err)
	}
	for _, k := range single {
		if !bytes.Equal(vals[k].Value, want[k]) || !vals[k].Found {
			t.Fatalf("multiget key %d = %+v, want %q", k, vals[k], want[k])
		}
	}
	if vers[0] == 0 {
		t.Fatal("single-shard multiget returned no version for the owning shard")
	}
	fan := c.obs.Metrics().Histogram(obs.MMultiGetFanout)
	if n, max := fan.Count(), fan.Max(); n != 1 || max != 1 {
		t.Fatalf("single-shard multiget fan-out count=%d max=%v, want one observation of 1", n, max)
	}
	if got := c.obs.Metrics().Counter(obs.MLeaseReads).Value(); got < readsBefore+uint64(len(single)) {
		t.Fatalf("leased reads %d -> %d, want +%d (short-circuit must use the fast path)",
			readsBefore, got, len(single))
	}

	// Cross-shard call: the short-circuit must stand aside and the general
	// fan-out path must still produce correct values.
	mixed := append(append([]uint64{}, single...), other)
	vals, _, err = sess.MultiGet(ctx, mixed)
	if err != nil {
		t.Fatalf("cross-shard multiget: %v", err)
	}
	for _, k := range mixed {
		if !bytes.Equal(vals[k].Value, want[k]) {
			t.Fatalf("cross-shard multiget key %d = %q, want %q", k, vals[k].Value, want[k])
		}
	}
	if n, max := fan.Count(), fan.Max(); n != 2 || max != 2 {
		t.Fatalf("after cross-shard multiget fan-out count=%d max=%v, want 2 observations, max 2", n, max)
	}
}

// TestLeaseViewChangeTortureNoStaleReads is the linearizability torture: one
// writer bumps a counter key through consensus while readers hammer the
// leased fast path, and mid-run the granting primary is killed so a view
// change races the lease. Every read must observe at least the last value
// the writer saw commit before the read was issued — a single stale read is
// a linearizability violation. Run under -race.
func TestLeaseViewChangeTortureNoStaleReads(t *testing.T) { leaseViewChangeTorture(t, 3) }

// TestLeaseViewChangeTortureNoStaleReads8Sessions is the same torture with
// eight reader sessions sharing the group's one lease holder: the renewals,
// drops and re-grants of a shared binding race the view change too.
func TestLeaseViewChangeTortureNoStaleReads8Sessions(t *testing.T) { leaseViewChangeTorture(t, 8) }

func leaseViewChangeTorture(t *testing.T, readers int) {
	// stallAfter is generous so the crashed group classifies ViewChanging
	// (traffic proceeds and drives the election), not Stalled (fail-fast
	// would starve the election of the very resends that trigger it).
	cfg := leaseFailoverConfig(1, 2*time.Second)
	cfg.Group.Clients = nil
	for id := 1; id <= readers+1; id++ {
		cfg.Group.Clients = append(cfg.Group.Clients, types.ClientID(id))
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	writer := c.Session(1)
	if err := writer.Insert(ctx, key, []byte("0")); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Uint64 // last counter value known committed
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := writer.Put(ctx, key, []byte(strconv.FormatUint(i, 10))); err != nil {
				// Degraded-window refusals are fine; the write did not
				// commit, so the fence is not advanced.
				i--
				time.Sleep(5 * time.Millisecond)
				continue
			}
			committed.Store(i)
		}
	}()

	var staleReads, okReads atomic.Uint64
	for r := 0; r < readers; r++ {
		rd := c.Session(types.ClientID(2 + r))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The fence: anything committed before the read was issued
				// must be visible in the read's result.
				min := committed.Load()
				got, err := rd.Get(ctx, key)
				if err != nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				v, perr := strconv.ParseUint(string(got), 10, 64)
				if perr != nil {
					t.Errorf("unparseable read %q", got)
					return
				}
				if v < min {
					staleReads.Add(1)
					t.Errorf("STALE READ: got %d, %d was already committed", v, min)
					return
				}
				okReads.Add(1)
			}
		}()
	}

	// Let the lease warm up, then kill the granting primary mid-traffic.
	time.Sleep(500 * time.Millisecond)
	c.Group(0).Runtime().StopReplica(0)
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	if s := staleReads.Load(); s != 0 {
		t.Fatalf("%d stale reads", s)
	}
	if okReads.Load() == 0 || committed.Load() == 0 {
		t.Fatalf("torture made no progress: reads=%d writes=%d", okReads.Load(), committed.Load())
	}
	m := c.obs.Metrics()
	if m.Counter(obs.MLeaseReads).Value() == 0 {
		t.Fatal("fast path never used during torture")
	}
	if m.Counter(obs.MLeaseFallbacks).Value() == 0 {
		t.Fatal("primary death produced no fast-path fallbacks")
	}
	st := c.Stats()
	if st.PerShard[0].View == 0 {
		t.Fatal("view never changed — the torture did not race a view change")
	}
	t.Logf("torture: %d writes, %d reads (%d leased, %d fallbacks), final view %d",
		committed.Load(), okReads.Load(), m.Counter(obs.MLeaseReads).Value(),
		m.Counter(obs.MLeaseFallbacks).Value(), st.PerShard[0].View)
}

// TestRebalanceFreezeRevokesLease: committing an OpRangeFreeze (the first
// step of a rebalance) deterministically revokes the source group's lease —
// the revocation counter advances and the old primary's tracker deactivates
// — and reads of the moved keys remain correct afterwards under the new
// placement epoch.
func TestRebalanceFreezeRevokesLease(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Migratable sub-range of group 0 plus keys inside it (rebFixture's
	// computation, on a lease-enabled cluster).
	full := c.Placement().GroupRanges(0)[0]
	r := Range{Start: full.Start, End: full.Start + (full.End-full.Start)/2}
	var keys []uint64
	for k := uint64(10_000); len(keys) < 6; k++ {
		if r.Contains(kvstore.KeyHash(k)) {
			keys = append(keys, k)
		}
	}
	want := make(map[uint64][]byte)
	for i, k := range keys {
		v := []byte(fmt.Sprintf("moved-%d", i))
		if err := sess.Insert(ctx, k, v); err != nil {
			t.Fatalf("insert: %v", err)
		}
		want[k] = v
	}
	// Arm the lease on the source group.
	if _, err := sess.Get(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, active := c.Group(0).Runtime().Node(0).LeaseState(); !active {
		t.Fatal("source primary holds no active lease before the rebalance")
	}

	revBefore := c.obs.Metrics().Counter(obs.MLeaseRevocations).Value()
	if _, err := sess.Rebalance(ctx, r, 1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if got := c.obs.Metrics().Counter(obs.MLeaseRevocations).Value(); got <= revBefore {
		t.Fatalf("lease revocations %d -> %d, want an increase from the range freeze", revBefore, got)
	}
	if epoch, active := c.Group(0).Runtime().Node(0).LeaseState(); active {
		t.Fatalf("source primary still serving lease epoch %d after freeze", epoch)
	}

	// The moved keys now live on group 1; the session's cached binding is
	// from the old placement epoch and must be dropped, re-granted, and the
	// values served correctly.
	for _, k := range keys {
		got, err := sess.Get(ctx, k)
		if err != nil {
			t.Fatalf("post-rebalance get %d: %v", k, err)
		}
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("post-rebalance get %d = %q, want %q", k, got, want[k])
		}
	}
}

// TestLeaseCrashNearExpiryFallsBack: the granting primary dies right at the
// lease-expiry boundary; every read issued across the boundary must either
// serve the committed value through the consensus fallback or fail with a
// routing error — never a wrong value — and service resumes once the view
// change lands.
func TestLeaseCrashNearExpiryFallsBack(t *testing.T) {
	cfg := leaseFailoverConfig(1, 2*time.Second)
	cfg.Group.Engine.LeaseDuration = 60 * time.Millisecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	if err := sess.Insert(ctx, key, []byte("boundary")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get(ctx, key); err != nil { // arm the lease
		t.Fatal(err)
	}

	// Land the crash near the end of the 60ms lease window.
	time.Sleep(50 * time.Millisecond)
	c.Group(0).Runtime().StopReplica(0)

	deadline := time.Now().Add(10 * time.Second)
	served := false
	for time.Now().Before(deadline) {
		got, err := sess.Get(ctx, key)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if string(got) != "boundary" {
			t.Fatalf("read across crash boundary = %q, want %q", got, "boundary")
		}
		served = true
		break
	}
	if !served {
		t.Fatal("no read served after the primary crashed at the lease boundary")
	}
	// Which escape hatch fired is timing-dependent — lease-read timeout, the
	// health gate, or a blocked re-grant riding the election — but the read
	// can only have been served by the post-crash regime.
	if v := c.Stats().PerShard[0].View; v == 0 {
		t.Fatalf("read served but no view change installed (view %d)", v)
	}
}

// leaseFallbacks reads the fallback counter of one reason.
func leaseFallbacks(c *Cluster, reason string) uint64 {
	return c.obs.Metrics().Counter(obs.ReasonLabel(obs.MLeaseFallbacks, reason)).Value()
}

// leaseFallbackBreakdown renders every fallback reason's count for failure
// messages.
func leaseFallbackBreakdown(c *Cluster) string {
	out := ""
	for _, reason := range leaseFallbackReasons {
		out += fmt.Sprintf("%s=%d ", reason, leaseFallbacks(c, reason))
	}
	return out
}

// TestLeaseSharedAcrossSessions: the lease is the group's, so 32 sessions
// reading and writing through one cluster must share one binding per group —
// renewed about once per half lease — instead of each granting its own and
// invalidating everyone else's. Bounds the grant count by elapsed time and
// the fallback share of reads.
func TestLeaseSharedAcrossSessions(t *testing.T) {
	const sessions, shards = 32, 2
	cfg := leaseConfig(shards)
	cfg.Group.Clients = nil
	for id := 1; id <= sessions; id++ {
		cfg.Group.Clients = append(cfg.Group.Clients, types.ClientID(id))
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	leaseDur := cfg.Group.Engine.LeaseDuration

	// Every session owns four keys on each shard.
	var sess []*Session
	keys := make([][]uint64, sessions)
	for i := 0; i < sessions; i++ {
		sess = append(sess, c.Session(types.ClientID(i+1)))
	}
	for g := 0; g < shards; g++ {
		all := freshKeysOnShard(c.Placement(), g, 4*sessions, 50_000)
		for i := range keys {
			keys[i] = append(keys[i], all[4*i:4*i+4]...)
		}
	}
	for i, s := range sess {
		for _, k := range keys[i] {
			if err := s.Insert(ctx, k, []byte("0")); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	// Arm both groups' leases, so the run below measures the steady state.
	for _, k := range keys[0] {
		if _, err := sess[0].Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	m := c.obs.Metrics()
	grants0 := m.Counter(obs.MLeaseGrants).Value()
	falls0 := m.Counter(obs.MLeaseFallbacks).Value()

	start := time.Now()
	var reads atomic.Uint64
	var wg sync.WaitGroup
	for i := range sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, ks := sess[i], keys[i]
			last := make([]int, len(ks))
			for n := 0; time.Since(start) < 10*leaseDur; n++ {
				slot := n % len(ks)
				if n%10 == 9 {
					last[slot]++
					if err := s.Put(ctx, ks[slot], []byte(strconv.Itoa(last[slot]))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					continue
				}
				got, err := s.Get(ctx, ks[slot])
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if v, _ := strconv.Atoi(string(got)); v != last[slot] {
					t.Errorf("session %d key %d read %q, last acknowledged write %d", i, ks[slot], got, last[slot])
					return
				}
				reads.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	grants := m.Counter(obs.MLeaseGrants).Value() - grants0
	falls := m.Counter(obs.MLeaseFallbacks).Value() - falls0
	maxGrants := uint64(shards) * uint64(2*elapsed/(leaseDur/2)+2)
	t.Logf("%d sessions, %v: %d reads, %d grants (bound %d), %d fallbacks (%s)",
		sessions, elapsed.Round(time.Millisecond), reads.Load(), grants, maxGrants, falls, leaseFallbackBreakdown(c))
	if grants > maxGrants {
		t.Fatalf("%d lease grants in %v, want at most %d: sessions are not sharing the group's lease", grants, elapsed, maxGrants)
	}
	if grants == 0 {
		t.Fatal("no renewal in ten lease durations")
	}
	if float64(falls) >= 0.02*float64(reads.Load()) {
		t.Fatalf("%d of %d leased reads fell back (%s), want under 2%%", falls, reads.Load(), leaseFallbackBreakdown(c))
	}
}

// TestLeaseRenewedAheadUnbroken: a lone reader crossing five lease durations
// never finds itself without a lease — the renewal is started ahead of expiry
// by the read that notices half the life is gone, and the client-side lifetime
// (anchored at submission) never outlasts the primary's.
func TestLeaseRenewedAheadUnbroken(t *testing.T) {
	cfg := leaseConfig(1)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	if err := sess.Insert(ctx, key, []byte("steady")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get(ctx, key); err != nil { // the first grant
		t.Fatal(err)
	}
	m := c.obs.Metrics()
	if got := m.Counter(obs.MLeaseGrants).Value(); got != 1 {
		t.Fatalf("%d grants after the first read, want 1", got)
	}
	noLease0 := leaseFallbacks(c, obs.LeaseFallbackNoLease)
	served0 := m.Counter(obs.MLeaseReads).Value()
	reads := uint64(0)
	for start := time.Now(); time.Since(start) < 5*cfg.Group.Engine.LeaseDuration; reads++ {
		got, err := sess.Get(ctx, key)
		if err != nil || string(got) != "steady" {
			t.Fatalf("get = %q, %v", got, err)
		}
	}
	if n := leaseFallbacks(c, obs.LeaseFallbackNoLease) - noLease0; n != 0 {
		t.Fatalf("%d no_lease fallbacks across five lease durations (%s), want an unbroken lease", n, leaseFallbackBreakdown(c))
	}
	if grants := m.Counter(obs.MLeaseGrants).Value(); grants < 5 {
		t.Fatalf("%d grants across five lease durations, want a renewal every half lease", grants)
	}
	if served := m.Counter(obs.MLeaseReads).Value() - served0; served < reads {
		t.Fatalf("%d of %d reads served on the fast path (%s)", served, reads, leaseFallbackBreakdown(c))
	}
}

// TestLeasedGetAfterOwnPut: a Get issued right after the session's own Put
// carries a fence the primary may not have executed yet — the Put was
// acknowledged by f+1 replicas, not necessarily by the primary's read view.
// The read must wait that out at the primary and come back on the fast path
// with the new value, not pay a consensus round.
func TestLeasedGetAfterOwnPut(t *testing.T) {
	c, err := NewCluster(leaseConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	if err := sess.Insert(ctx, key, []byte("0")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get(ctx, key); err != nil { // arm the lease
		t.Fatal(err)
	}
	m := c.obs.Metrics()
	served0 := m.Counter(obs.MLeaseReads).Value()
	falls0 := m.Counter(obs.MLeaseFallbacks).Value()
	const rounds = 300
	for i := 1; i <= rounds; i++ {
		want := strconv.Itoa(i)
		if err := sess.Put(ctx, key, []byte(want)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := sess.Get(ctx, key)
		if err != nil || string(got) != want {
			t.Fatalf("get after put %d = %q, %v", i, got, err)
		}
	}
	served := m.Counter(obs.MLeaseReads).Value() - served0
	falls := m.Counter(obs.MLeaseFallbacks).Value() - falls0
	if served != rounds || falls != 0 {
		t.Fatalf("%d of %d read-your-write Gets on the fast path, %d fallbacks (%s)",
			served, rounds, falls, leaseFallbackBreakdown(c))
	}
}
