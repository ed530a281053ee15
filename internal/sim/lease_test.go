package sim

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// leaseCluster builds a flexibft cluster running a read-mostly workload with
// the read-lease fast path toggled by on.
func leaseCluster(seed int64, on bool, mutate func(cfg *Config)) *Cluster {
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 10
	ecfg.ReadLease = on
	wl := workload.DefaultConfig()
	wl.Records = 1000
	wl.Mix = workload.YCSBB
	wl.Seed = seed
	cfg := Config{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		ClientRetry:    8 * time.Second,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        200,
		Workload:       wl,
		Seed:           seed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewCluster(cfg)
}

// TestLeasedReadsServe: with the lease on, reads flow down the fast path and
// come back far quicker than the same mix pushed entirely through consensus.
// The speedup is emergent from the cost model (one primary-local lookup vs a
// full protocol round), not asserted into existence.
func TestLeasedReadsServe(t *testing.T) {
	on := leaseCluster(3, true, nil).Run(100*time.Millisecond, 400*time.Millisecond)
	off := leaseCluster(3, false, nil).Run(100*time.Millisecond, 400*time.Millisecond)
	if off.LeaseReads != 0 || off.LeaseFallbacks != 0 {
		t.Fatalf("lease disabled but fast path ran: %d reads, %d fallbacks", off.LeaseReads, off.LeaseFallbacks)
	}
	if on.LeaseReads == 0 {
		t.Fatal("lease enabled but no reads took the fast path")
	}
	if on.Completed == 0 || off.Completed == 0 {
		t.Fatalf("runs did not complete work: on=%d off=%d", on.Completed, off.Completed)
	}
	// A leased read costs one network round trip plus a microsecond-scale
	// lookup; a consensus read costs a full protocol round. Require a wide
	// margin so the test tracks the mechanism, not the constants.
	if on.LeaseReadP50 >= off.P50Lat/3 {
		t.Fatalf("leased read p50 %v not well below consensus p50 %v", on.LeaseReadP50, off.P50Lat)
	}
	// Reads skipping consensus must not slow anything down overall.
	if on.Throughput < off.Throughput {
		t.Fatalf("lease on lowered throughput: %.0f < %.0f", on.Throughput, off.Throughput)
	}
	t.Logf("lease on:  %v  leased_p50=%v reads=%d falls=%d", on, on.LeaseReadP50, on.LeaseReads, on.LeaseFallbacks)
	t.Logf("lease off: %v", off)
}

// TestLeaseDeterminism: the leased fast path preserves the simulator's
// bit-identical replay property.
func TestLeaseDeterminism(t *testing.T) {
	a := leaseCluster(7, true, nil).Run(100*time.Millisecond, 300*time.Millisecond)
	b := leaseCluster(7, true, nil).Run(100*time.Millisecond, 300*time.Millisecond)
	if a != b {
		t.Fatalf("identical seeds diverged with lease on:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestLeaseRevokedByCommittedOp: committing OpLeaseRevoke deactivates every
// replica's tracker at execute time; the pool falls back to consensus reads
// and the next renewal re-arms the lease under a strictly higher epoch.
func TestLeaseRevokedByCommittedOp(t *testing.T) {
	c := leaseCluster(11, true, func(cfg *Config) {
		// Slow the renewal cadence (dur/2 = 1s) so the revoked window is
		// observable before the next grant lands.
		cfg.Engine.LeaseDuration = 2 * time.Second
	})
	c.InjectRequest(300*time.Millisecond, 0, &types.ClientRequest{
		Client: 999_999, ReqNo: 1, Op: kvstore.EncodeLeaseRevoke().Encode(),
	})
	var epochBefore uint64
	var activeBefore, activeAfter bool
	c.At(250*time.Millisecond, func() { epochBefore, activeBefore = c.LeaseState(0) })
	c.At(450*time.Millisecond, func() { _, activeAfter = c.LeaseState(0) })
	c.Run(100*time.Millisecond, 1400*time.Millisecond) // virtual time runs to 1.5s
	if !activeBefore || epochBefore == 0 {
		t.Fatalf("lease not granted before revoke: epoch=%d active=%v", epochBefore, activeBefore)
	}
	if activeAfter {
		t.Fatal("committed OpLeaseRevoke did not deactivate the primary's tracker")
	}
	// The renewal at ~dur/2 after the first grant re-arms it with a fresh
	// epoch — monotone, never reusing the revoked one.
	epochEnd, activeEnd := c.LeaseState(0)
	if !activeEnd {
		t.Fatal("renewal after revocation never re-armed the lease")
	}
	if epochEnd <= epochBefore {
		t.Fatalf("re-granted lease epoch %d not above revoked epoch %d", epochEnd, epochBefore)
	}
}

// TestLeaseReadParksBehindFence: a leased read fenced one past the primary's
// read view is not refused; it waits, and the execution that reaches the
// fence answers it with the value that execution wrote.
func TestLeaseReadParksBehindFence(t *testing.T) {
	c := leaseCluster(5, true, func(cfg *Config) {
		cfg.Clients = 0 // only the injected operations below
		cfg.Engine.LeaseDuration = time.Second
	})
	c.InjectRequest(10*time.Millisecond, 0, &types.ClientRequest{
		Client: 900, ReqNo: 1, Op: kvstore.EncodeLeaseGrant(time.Second).Encode(),
	})
	var reply *types.LeaseReadReply
	c.SetSendFilter(0, func(_ int, m types.Message) bool {
		if r, ok := m.(*types.LeaseReadReply); ok && r.ReadNo == 1 {
			reply = r
		}
		return true
	})
	var fence types.SeqNum
	c.At(50*time.Millisecond, func() {
		if _, active := c.LeaseState(0); !active {
			t.Fatal("lease not granted before the read")
		}
		_, proto := c.Replica(0)
		fence = proto.(*flexibft.Protocol).Exec.LastExecuted() + 1
		c.g.scheduleMessage(c.Now(), c.g.poolIdx(), 0, &types.LeaseRead{Client: 901, ReadNo: 1, Key: 7, Fence: fence})
	})
	c.InjectRequest(60*time.Millisecond, 0, &types.ClientRequest{
		Client: 902, ReqNo: 1, Op: (&kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("fenced")}).Encode(),
	})
	c.RunUntil(55 * time.Millisecond)
	if reply != nil {
		t.Fatalf("read behind the fence answered before the view caught up: %+v", reply)
	}
	c.RunUntil(200 * time.Millisecond)
	if reply == nil || reply.Status != types.LeaseReadOK || string(reply.Value) != "fenced" || reply.Watermark < fence {
		t.Fatalf("fenced read answered %+v, want OK with the value written at seq %d", reply, fence)
	}
}

// TestLeaseSurvivesViewChange is the simulator half of the view-change
// torture: the primary holding a live lease crashes while a read-mostly
// workload (with writers) is in flight. The view change must revoke the old
// binding deterministically, reads must fall back rather than ever being
// accepted stale (the pool only accepts replies bound to the exact granted
// lease at-or-above the fence), and the fast path must come back under the
// new primary.
func TestLeaseSurvivesViewChange(t *testing.T) {
	c := leaseCluster(13, true, func(cfg *Config) {
		cfg.Engine.ViewChangeTimeout = 100 * time.Millisecond
		cfg.ClientRetry = 2 * time.Second
	})
	c.Crash(0, 500*time.Millisecond)
	res := c.Run(time.Second, 3*time.Second)
	if res.ViewChanges == 0 {
		t.Fatal("primary crash produced no view change")
	}
	if res.Completed == 0 {
		t.Fatal("no completions after the lease-holding primary crashed")
	}
	// The measurement window opens well after the crash, so fast-path reads
	// inside it prove a fresh grant under the new primary.
	if res.LeaseReads == 0 {
		t.Fatal("lease never re-established under the new primary")
	}
	// The reads outstanding at the crash (and any sent to the dead primary
	// before the pool learned the new view) must have fallen back.
	if res.LeaseFallbacks == 0 {
		t.Fatal("crash mid-lease produced zero fallbacks; outstanding leased reads vanished")
	}
	// Survivors executed one history: replicas cut off at the same execution
	// point must hold identical state digests.
	byProgress := map[types.SeqNum]types.Digest{}
	for r := types.ReplicaID(1); r < 4; r++ {
		_, proto := c.Replica(r)
		exec := proto.(*flexibft.Protocol).Exec.LastExecuted()
		d := c.StateDigestOf(r)
		if prev, ok := byProgress[exec]; ok && prev != d {
			t.Fatalf("replica %d diverged at slot %d after the view change", r, exec)
		}
		byProgress[exec] = d
	}
}
