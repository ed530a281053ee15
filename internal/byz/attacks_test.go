// Tests reproducing the paper's analysis sections: the Section 5
// responsiveness attack and the Section 6 rollback safety violation, each
// with the FlexiTrust counterpart showing the 3f+1 design sidesteps it.
package byz

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// smallEngine returns a small-cluster engine config.
func smallEngine(n, f int) engine.Config {
	cfg := engine.DefaultConfig(n, f)
	cfg.BatchSize = 1
	cfg.BatchTimeout = time.Millisecond
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	return cfg
}

// buildCluster assembles a sim cluster with per-replica protocol choice.
func buildCluster(t *testing.T, n, f int, profile trusted.Profile,
	mk func(id types.ReplicaID, cfg engine.Config) engine.Protocol,
	replies int, retry time.Duration) *sim.Cluster {
	t.Helper()
	wl := workload.DefaultConfig()
	wl.Records = 1000
	return sim.NewCluster(sim.Config{
		N: n, F: f,
		Engine:         smallEngine(n, f),
		NewProtocol:    mk,
		Replies:        replies,
		ClientRetry:    retry,
		Topo:           sim.LANTopology(n),
		TrustedProfile: profile,
		Clients:        1,
		Workload:       wl,
		Seed:           7,
	})
}

// TestResponsivenessAttackStallsMinBFT reproduces Claim 1: with n = 2f+1 and
// f = 1, a byzantine primary that withholds messages from honest group D
// (and does not reply to the client), plus delayed links from the remaining
// honest replica r to D, leaves the client with a single matching response —
// below the f+1 it needs. Consensus liveness holds (r commits and executes)
// but RSM liveness fails: the client never completes, and D's lone
// view-change vote (1 < f+1... it needs company) cannot replace the primary.
func TestResponsivenessAttackStallsMinBFT(t *testing.T) {
	const n, f = 3, 1
	c := buildCluster(t, n, f, trusted.ProfileSGXEnclave,
		func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return minbft.New(cfg) },
		f+1, 2400*time.Millisecond)
	// Byzantine primary p=0: sends nothing to D={2} nor to the clients.
	c.SetSendFilter(0, WithholdFrom(2, n))
	// Honest r=1's messages to D={2} are delayed beyond the horizon
	// (possible under partial synchrony).
	c.DelayLink(1, 2, time.Hour, 0, nil)

	res := c.Run(200*time.Millisecond, 2800*time.Millisecond)

	if res.Completed != 0 {
		t.Fatalf("client completed %d transactions; the attack should stall it", res.Completed)
	}
	// Consensus liveness: the lone honest replica r=1 executed the request.
	if c.StateDigestOf(1).IsZero() {
		t.Fatal("replica 1 never executed anything; consensus itself should proceed")
	}
	// The client kept complaining (re-broadcasts) to no avail.
	if res.Resends == 0 {
		t.Fatal("client never re-broadcast its request")
	}
	// D={2} could not have executed (it got no messages).
	if !c.StateDigestOf(2).IsZero() {
		t.Fatal("replica 2 executed despite receiving no protocol messages")
	}
}

// TestResponsivenessAttackFailsOnFlexiBFT runs the identical attack shape
// against Flexi-BFT (n = 3f+1): 2f+1 quorums guarantee f+1 honest executors,
// so the client still collects f+1 matching responses.
func TestResponsivenessAttackFailsOnFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	c := buildCluster(t, n, f, trusted.ProfileSGXEnclave,
		func(_ types.ReplicaID, cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		f+1, 2400*time.Millisecond)
	c.SetSendFilter(0, WithholdFrom(3, n)) // withhold from D={3} and clients
	c.DelayLink(1, 3, time.Hour, 0, nil)
	c.DelayLink(2, 3, time.Hour, 0, nil)

	res := c.Run(200*time.Millisecond, 1800*time.Millisecond)

	if res.Completed == 0 {
		t.Fatal("Flexi-BFT client stalled; 3f+1 should remain responsive under this attack")
	}
}

// rollbackOps returns two conflicting operations.
func rollbackOps() (opT, opAlt []byte) {
	opT = (&kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("TTTTTTTT")}).Encode()
	opAlt = (&kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("'T'T'T'T")}).Encode()
	return
}

// TestRollbackAttackViolatesMinBFTSafety reproduces Section 6: the byzantine
// primary binds T to sequence 1, shows it to group {1} (and answers the
// client itself, completing T), rolls its trusted component back, binds a
// conflicting T' to the same sequence and shows it to group {2}. Two honest
// replicas execute different transactions at sequence 1.
func TestRollbackAttackViolatesMinBFTSafety(t *testing.T) {
	const n, f = 3, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppend, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1}, GroupB: []types.ReplicaID{2},
		ReplyToClient: true,
	}
	c := buildCluster(t, n, f, trusted.ProfileSGXEnclave,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return minbft.New(cfg)
		}, f+1, 8*time.Second)

	res := c.Run(0, time.Second)

	if attacker.RollbackErr != nil {
		t.Fatalf("rollback failed on SGX-profile hardware: %v", attacker.RollbackErr)
	}
	// The client completed T (f+1 matching responses: replica 1 + primary).
	if res.Completed == 0 {
		t.Fatal("client never completed T; attack setup broken")
	}
	d1, d2 := c.StateDigestOf(1), c.StateDigestOf(2)
	if d1.IsZero() || d2.IsZero() {
		t.Fatalf("both honest replicas must execute something (d1=%v d2=%v)", d1, d2)
	}
	if d1 == d2 {
		t.Fatal("honest replicas agree; expected a safety violation (divergent state at seq 1)")
	}
}

// TestRollbackAttackDefeatedByProtectedHardware repeats the attack on
// TPM-class hardware: Restore fails, no conflicting attestation exists, and
// the honest replicas never diverge (the paper's "replace vulnerable enclave
// accesses with TPMs" fix — at the latency cost Figure 8 quantifies).
func TestRollbackAttackDefeatedByProtectedHardware(t *testing.T) {
	const n, f = 3, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppend, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1}, GroupB: []types.ReplicaID{2},
		ReplyToClient: true,
	}
	profile := trusted.ProfileTPM.WithAccessCost(time.Microsecond) // protection, not latency, under test
	c := buildCluster(t, n, f, profile,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return minbft.New(cfg)
		}, f+1, 8*time.Second)

	c.Run(0, time.Second)

	if attacker.RollbackErr == nil {
		t.Fatal("rollback succeeded on rollback-protected hardware")
	}
	if !c.StateDigestOf(2).IsZero() {
		t.Fatal("replica 2 executed; no conflicting proposal should exist")
	}
}

// TestRollbackAttackHarmlessOnFlexiBFT mounts the same rollback against
// Flexi-BFT (n = 3f+1): the attacker can re-issue an attestation for
// sequence 1, but 2f+1 quorums intersect in an honest replica, so the
// conflicting proposal can never commit — no two honest replicas execute
// different transactions at the same slot (Theorem 4).
func TestRollbackAttackHarmlessOnFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppendF, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1, 2}, GroupB: []types.ReplicaID{3},
		ReplyToClient: true,
	}
	c := buildCluster(t, n, f, trusted.ProfileSGXEnclave,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 8*time.Second)

	res := c.Run(0, time.Second)

	if attacker.RollbackErr != nil {
		t.Fatalf("rollback itself should succeed on SGX-profile hardware: %v", attacker.RollbackErr)
	}
	// T commits at replicas 1 and 2 (quorum: primary attestation + their two
	// prepares = 2f+1); the client completes.
	if res.Completed == 0 {
		t.Fatal("client never completed T")
	}
	d1, d2 := c.StateDigestOf(1), c.StateDigestOf(2)
	if d1.IsZero() || d1 != d2 {
		t.Fatalf("replicas 1 and 2 must agree on T at seq 1 (d1=%v d2=%v)", d1, d2)
	}
	// Replica 3 saw only the conflicting T' — it must never have committed
	// or executed it (votes for T' cannot reach 2f+1).
	if !c.StateDigestOf(3).IsZero() {
		t.Fatal("replica 3 executed the equivocated proposal; quorum intersection broken")
	}
}
