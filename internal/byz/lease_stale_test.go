// Byzantine read-lease scenario: a deposed primary that keeps serving
// leased reads after its lease was revoked must never get a stale read
// accepted. The client-side fences — exact (replica, view, epoch) lease
// binding, grant attestation, and the committed-watermark fence carried by
// every read — are the safety mechanism under test.
package byz

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// staleLeaseCluster builds a 4-replica Flexi-BFT group with the leased read
// fast path on, a deliberately long lease term (the attack window), and a
// read-heavy closed loop hot enough to keep leased reads in flight
// throughout the partition and view change.
func staleLeaseCluster(seed int64) *sim.Cluster {
	const n, f = 4, 1
	ecfg := engine.DefaultConfig(n, f)
	ecfg.BatchSize = 10
	ecfg.ViewChangeTimeout = 300 * time.Millisecond
	ecfg.ReadLease = true
	// Long lease: the deposed primary's term is nowhere near expiry when
	// the new view starts committing, so only revocation semantics — not
	// the expiry clock — stand between it and a stale serve.
	ecfg.LeaseDuration = 2 * time.Second
	wl := workload.DefaultConfig()
	wl.Records = 1000
	wl.Mix = workload.YCSBB
	wl.Seed = seed
	return sim.NewCluster(sim.Config{
		N: n, F: f,
		Engine:         ecfg,
		NewProtocol:    func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        f + 1,
		ClientRetry:    2400 * time.Millisecond,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        100,
		Workload:       wl,
		Seed:           seed,
	})
}

// TestStaleServePrimaryCannotServeRevokedLease mounts the lease-path
// byzantine attack: at 600ms the granting primary (replica 0) is partitioned
// from every other replica — its view of committed state freezes — and
// switched to stale-serve mode, answering every leased read from the last
// binding it held with the client's fence ignored. The honest majority
// elects a new primary and keeps committing writes, so replica 0's answers
// are soon behind committed state.
//
// Safety: no stale answer is ever accepted. The client pool rejects replies
// that do not bind its current lease (view/epoch/replica) or that carry a
// watermark below the read's fence — those reads fall back to consensus.
// Liveness: after the view change the pool re-grants at the new view and the
// fast path resumes; the measurement window (opening well after the
// partition) still sees leased reads, every one of them bound to the new
// primary's lease by the same checks that reject replica 0's.
func TestStaleServePrimaryCannotServeRevokedLease(t *testing.T) {
	const n = 4
	c := staleLeaseCluster(11)
	attackAt := 600 * time.Millisecond
	c.At(attackAt, func() {
		for j := 1; j < n; j++ {
			c.DropLink(0, j, 0, nil)
			c.DropLink(j, 0, 0, nil)
		}
		// Slow the stale server's read replies past the election: each one
		// was served under the old lease but resolves at the client after
		// the new view's commits have advanced the pool's binding and
		// fence — the race a revoked-lease primary needs to win to sneak a
		// stale value through. (The pool's replica index n is the client
		// pool; see SetSendFilter.)
		c.DelayLink(0, n, 500*time.Millisecond, 0, func(m types.Message) bool {
			_, ok := m.(*types.LeaseReadReply)
			return ok
		})
	})
	c.SetStaleServe(0, true)

	// Warmup covers the attack and the election; the window measures the
	// recovered regime only.
	res := c.Run(1500*time.Millisecond, 1500*time.Millisecond)

	if res.ViewChanges == 0 {
		t.Fatal("partitioning the primary caused no view change")
	}
	if res.Completed == 0 {
		t.Fatal("no transactions completed after the view change")
	}
	// The stale server's replies were rejected, not accepted: every one
	// shows up as a fast-path fallback.
	if res.LeaseFallbacks == 0 {
		t.Fatal("no lease fallbacks: the stale primary's replies were never challenged")
	}
	// The fast path recovered under the new view's lease — the measurement
	// window opens after the election, so none of these can be replica 0's.
	if res.LeaseReads == 0 {
		t.Fatal("leased reads never resumed after the re-grant at the new view")
	}
	// The stale server still holds its long-expired-in-authority binding
	// (that is the attack); the honest majority's state is what counts.
	if epoch, _ := c.LeaseState(0); epoch == 0 {
		t.Fatal("replica 0 never held a grant; the attack was not exercised")
	}
	// Honest replicas at equal execution points agree exactly — serving
	// reads through the revoked lease never perturbed replicated state.
	byProgress := map[types.SeqNum]types.Digest{}
	for r := types.ReplicaID(1); r < n; r++ {
		_, proto := c.Replica(r)
		exec := proto.(*flexibft.Protocol).Exec.LastExecuted()
		d := c.StateDigestOf(r)
		if prev, ok := byProgress[exec]; ok && prev != d {
			t.Fatalf("honest replica %d diverged at slot %d", r, exec)
		}
		byProgress[exec] = d
	}
	t.Logf("attack run: completed=%d leased=%d fallbacks=%d viewchanges=%d",
		res.Completed, res.LeaseReads, res.LeaseFallbacks, res.ViewChanges)
}
