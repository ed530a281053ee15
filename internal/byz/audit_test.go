// Tests replaying the attack scenarios against the attested-access audit
// stream (internal/obs): the Section 6 rollback equivocation must raise a
// counter-regression alarm on every protocol it is mounted against —
// including ones whose quorum intersection keeps the attack harmless — and
// the defeated-hardware variant must stay alarm-free, because no regressed
// value is ever minted.
package byz

import (
	"strings"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// buildAuditedCluster is buildCluster with an observer attached to the
// kernel, so every machine's trusted component feeds the audit stream.
func buildAuditedCluster(t *testing.T, n, f int, profile trusted.Profile,
	mk func(id types.ReplicaID, cfg engine.Config) engine.Protocol,
	replies int, retry time.Duration) (*sim.Cluster, *obs.Observer) {
	t.Helper()
	o := obs.New(obs.Config{})
	wl := workload.DefaultConfig()
	wl.Records = 1000
	c := sim.NewCluster(sim.Config{
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
		Obs:            o,
	})
	return c, o
}

// hasRegressionAlarm reports whether the audit flagged a counter rollback.
func hasRegressionAlarm(o *obs.Observer) bool {
	for _, a := range o.Audit().Alarms() {
		if strings.Contains(a.Message, "counter regression") {
			return true
		}
	}
	return false
}

// TestAuditFlagsRollbackOnMinBFT replays the Section 6 attack (which DOES
// violate MinBFT safety) with the audit stream attached: the byzantine
// primary's post-rollback re-mint produces a second attestation at an
// already-seen counter value, and the online checker raises a
// counter-regression alarm naming the rollback.
func TestAuditFlagsRollbackOnMinBFT(t *testing.T) {
	const n, f = 3, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppend, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1}, GroupB: []types.ReplicaID{2},
		ReplyToClient: true,
	}
	c, o := buildAuditedCluster(t, n, f, trusted.ProfileSGXEnclave,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return minbft.New(cfg)
		}, f+1, 8*time.Second)

	c.Run(0, time.Second)

	if attacker.RollbackErr != nil {
		t.Fatalf("rollback failed on SGX-profile hardware: %v", attacker.RollbackErr)
	}
	if o.Audit().TotalAccesses() < 2 {
		t.Fatalf("audit saw %d accesses, want at least the two equivocating mints",
			o.Audit().TotalAccesses())
	}
	if !hasRegressionAlarm(o) {
		t.Fatalf("audit raised no counter-regression alarm for the rollback; alarms: %v",
			o.Audit().Alarms())
	}
}

// TestAuditFlagsRollbackOnFlexiBFT mounts the same rollback against
// Flexi-BFT, where 2f+1 quorum intersection keeps it harmless (no safety
// violation) — but the audit stream still flags the regressed AppendF mint.
// Detection is independent of whether the attack succeeds.
func TestAuditFlagsRollbackOnFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppendF, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1, 2}, GroupB: []types.ReplicaID{3},
		ReplyToClient: true,
	}
	c, o := buildAuditedCluster(t, n, f, trusted.ProfileSGXEnclave,
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
	if res.Completed == 0 {
		t.Fatal("client never completed T; attack setup broken")
	}
	if !hasRegressionAlarm(o) {
		t.Fatalf("audit raised no counter-regression alarm; alarms: %v", o.Audit().Alarms())
	}
}

// TestAuditSilentWhenRollbackDefeated repeats the attack on rollback-
// protected hardware: Restore fails, so no regressed value is ever minted —
// and the checker must stay silent. The alarm tracks the equivocating mint,
// not the attempt.
func TestAuditSilentWhenRollbackDefeated(t *testing.T) {
	const n, f = 3, 1
	opT, opAlt := rollbackOps()
	attacker := &RollbackPrimary{
		Mode: ModeAppend, OpT: opT, OpTalt: opAlt,
		GroupA: []types.ReplicaID{1}, GroupB: []types.ReplicaID{2},
		ReplyToClient: true,
	}
	profile := trusted.ProfileTPM.WithAccessCost(time.Microsecond)
	c, o := buildAuditedCluster(t, n, f, profile,
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
	if alarms := o.Audit().Alarms(); len(alarms) != 0 {
		t.Fatalf("audit raised %d alarms on a defeated attack: %v", len(alarms), alarms)
	}
}
