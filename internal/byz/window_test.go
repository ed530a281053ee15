// Tests mounting the windowed-attestation attacks: a byzantine primary that
// reorders batches inside an attested window is rejected by every honest
// replica (the chain, not the preprepare stream, is authoritative), liveness
// recovers by view change, and the audit stream flags a window record whose
// claimed tip does not match the attested access.
package byz

import (
	"strings"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// windowedEngine is smallEngine with windowed amortized attestation on.
func windowedEngine(n, f, window int) engine.Config {
	cfg := smallEngine(n, f)
	cfg.AttestWindow = window
	return cfg
}

// buildWindowedCluster assembles a sim cluster whose engine has an attest
// window configured; o may be nil (no audit stream).
func buildWindowedCluster(t *testing.T, n, f, window int,
	mk func(id types.ReplicaID, cfg engine.Config) engine.Protocol,
	replies int, retry time.Duration, o *obs.Observer) *sim.Cluster {
	t.Helper()
	wl := workload.DefaultConfig()
	wl.Records = 1000
	return sim.NewCluster(sim.Config{
		N: n, F: f,
		Engine:         windowedEngine(n, f, window),
		NewProtocol:    mk,
		Replies:        replies,
		ClientRetry:    retry,
		Topo:           sim.LANTopology(n),
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        1,
		Workload:       wl,
		Seed:           7,
		Obs:            o,
	})
}

// TestWindowReorderRejectedByFlexiBFT mounts the in-window equivocation: the
// byzantine primary preprepares [A@1, B@2] but attests (and certifies) the
// swapped order [B@1, A@2]. The certificate is genuine — its chain fold
// matches the attested tip — yet every honest replica refuses to vote,
// because neither delivered preprepare carries the digest the chain
// certifies for its slot. The run stays short of the view-change timeout so
// the rejection is observed in isolation.
func TestWindowReorderRejectedByFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowReorderPrimary{OpA: opA, OpB: opB}
	c := buildWindowedCluster(t, n, f, 4,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 8*time.Second, nil)

	res := c.Run(0, 250*time.Millisecond)

	if !attacker.CertSent {
		t.Fatal("attack never fired; no client request reached the primary")
	}
	if res.Completed != 0 {
		t.Fatalf("client completed %d transactions against a reordered window", res.Completed)
	}
	for r := 1; r < n; r++ {
		if !c.StateDigestOf(types.ReplicaID(r)).IsZero() {
			t.Fatalf("replica %d executed a slot from a reordered window", r)
		}
	}
}

// TestWindowForgedCertRejectedByFlexiBFT mounts the cruder forgery: the
// primary attests the honest order but publishes a certificate listing the
// swapped digests. The fold no longer matches the attested tip, VerifyWC
// rejects the certificate outright, and the stashed preprepares never
// release a vote.
func TestWindowForgedCertRejectedByFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowReorderPrimary{OpA: opA, OpB: opB, ForgeCert: true}
	c := buildWindowedCluster(t, n, f, 4,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 8*time.Second, nil)

	res := c.Run(0, 250*time.Millisecond)

	if !attacker.CertSent {
		t.Fatal("attack never fired")
	}
	if res.Completed != 0 {
		t.Fatalf("client completed %d transactions against a forged certificate", res.Completed)
	}
	for r := 1; r < n; r++ {
		if !c.StateDigestOf(types.ReplicaID(r)).IsZero() {
			t.Fatalf("replica %d executed a slot from a forged certificate", r)
		}
	}
}

// TestWindowReorderRejectedByFlexiZZ repeats the in-window equivocation
// against the speculative protocol: windowed backups hold speculative
// execution until the covering certificate verifies the slot, so the
// reordered window executes nowhere.
func TestWindowReorderRejectedByFlexiZZ(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowReorderPrimary{OpA: opA, OpB: opB}
	c := buildWindowedCluster(t, n, f, 4,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexizz.New(cfg)
		}, f+1, 8*time.Second, nil)

	res := c.Run(0, 250*time.Millisecond)

	if !attacker.CertSent {
		t.Fatal("attack never fired")
	}
	if res.Completed != 0 {
		t.Fatalf("client completed %d transactions against a reordered window", res.Completed)
	}
	for r := 1; r < n; r++ {
		if !c.StateDigestOf(types.ReplicaID(r)).IsZero() {
			t.Fatalf("replica %d speculatively executed a slot from a reordered window", r)
		}
	}
}

// TestWindowReorderLivenessRecovers runs the reorder attack past the
// view-change timeout: the stalled backups depose the byzantine primary,
// the new (windowed) primary re-proposes nothing — no reordered slot was
// ever prepared — and the real workload commits in the new view with all
// honest replicas agreeing on state.
func TestWindowReorderLivenessRecovers(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowReorderPrimary{OpA: opA, OpB: opB}
	c := buildWindowedCluster(t, n, f, 4,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 4*time.Second, nil)

	res := c.Run(0, 2500*time.Millisecond)

	if !attacker.CertSent {
		t.Fatal("attack never fired")
	}
	if res.Completed == 0 {
		t.Fatal("client never completed; view change should restore liveness")
	}
	d1 := c.StateDigestOf(1)
	if d1.IsZero() {
		t.Fatal("replica 1 executed nothing after the view change")
	}
	for r := 2; r < n; r++ {
		if d := c.StateDigestOf(types.ReplicaID(r)); d != d1 {
			t.Fatalf("replica %d diverged after the view change (d=%v, d1=%v)", r, d, d1)
		}
	}
}

// TestAuditFlagsForgedWindowRecord attaches the audit stream and has the
// attacker lie in telemetry: its window record claims the honest chain tip
// while the access it spent attested the swapped fold. The forged-range rule
// must flag the mismatch; the protocol-level rejection is unchanged.
func TestAuditFlagsForgedWindowRecord(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowReorderPrimary{OpA: opA, OpB: opB, LieToAudit: true}
	o := obs.New(obs.Config{})
	c := buildWindowedCluster(t, n, f, 4,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				attacker.Cfg = cfg
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 8*time.Second, o)

	c.Run(0, 250*time.Millisecond)

	if !attacker.CertSent {
		t.Fatal("attack never fired")
	}
	found := false
	for _, a := range o.Audit().Alarms() {
		found = found || strings.Contains(a.Message, "forged range")
	}
	if !found {
		t.Fatalf("audit raised no forged-range alarm for the lying window record; alarms: %v",
			o.Audit().Alarms())
	}
	for r := 1; r < n; r++ {
		if !c.StateDigestOf(types.ReplicaID(r)).IsZero() {
			t.Fatalf("replica %d executed a slot from a reordered window", r)
		}
	}
}

// forgeCheckTarget is the third conflicting op for the view-change forgery:
// the attacker binds slot 1 to this payload in its forged certificate.
func forgeOp() []byte {
	return (&kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("XXXXXXXX")}).Encode()
}

// buildForgerCluster is buildWindowedCluster with the checkpoint interval
// widened so slot 1 is still inspectable when the run ends (a stable
// checkpoint would GC the binding under test).
func buildForgerCluster(t *testing.T, n, f, window int,
	mk func(id types.ReplicaID, cfg engine.Config) engine.Protocol,
	replies int, retry time.Duration) *sim.Cluster {
	t.Helper()
	cfg := windowedEngine(n, f, window)
	cfg.CheckpointEvery = 100000
	wl := workload.DefaultConfig()
	wl.Records = 1000
	return sim.NewCluster(sim.Config{
		N: n, F: f,
		Engine:         cfg,
		NewProtocol:    mk,
		Replies:        replies,
		ClientRetry:    retry,
		Topo:           sim.LANTopology(n),
		TrustedProfile: trusted.ProfileSGXEnclave,
		Clients:        1,
		Workload:       wl,
		Seed:           7,
	})
}

// TestWindowViewChangeForgeryRejectedByFlexiBFT mounts the view-change
// forgery the per-certificate check cannot catch: the byzantine primary
// commits slots 1 and 2 under an honest window, then spends a SECOND counter
// access on a chain re-anchored at genesis binding slot 1 to a different
// batch, and presents it as genuinely-signed view-change evidence before
// going silent. Every individual proof verifies; only the counter-value
// ordering distinguishes the canonical chain (value 1) from the forgery
// (value 2). The new view must keep slot 1 bound to the committed batch on
// every honest replica, with liveness restored.
func TestWindowViewChangeForgeryRejectedByFlexiBFT(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowViewChangeForger{OpA: opA, OpB: opB, OpX: forgeOp()}
	c := buildForgerCluster(t, n, f, 2,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexibft.New(cfg)
		}, f+1, 4*time.Second)

	res := c.Run(0, 2500*time.Millisecond)

	if !attacker.CertSent || !attacker.ForgedVCSent {
		t.Fatal("attack never fired")
	}
	if res.Completed == 0 {
		t.Fatal("client never completed; view change should restore liveness")
	}
	for r := types.ReplicaID(1); r < n; r++ {
		_, proto := c.Replica(r)
		p := proto.(*flexibft.Protocol)
		if p.View == 0 {
			t.Fatalf("replica %d never deposed the silent primary; the forged evidence was never adjudicated", r)
		}
		d, ok := p.SlotDigest(1)
		if !ok {
			t.Fatalf("replica %d lost its slot 1 binding", r)
		}
		if d == attacker.BatchX {
			t.Fatalf("replica %d adopted the forged binding for committed slot 1", r)
		}
		if d != attacker.BatchA {
			t.Fatalf("replica %d rebound committed slot 1 away from the attested batch", r)
		}
	}
	d1 := c.StateDigestOf(1)
	for r := types.ReplicaID(2); r < n; r++ {
		if d := c.StateDigestOf(r); d != d1 {
			t.Fatalf("replica %d diverged after the forged view change (d=%v, d1=%v)", r, d, d1)
		}
	}
}

// TestWindowViewChangeForgeryRejectedByFlexiZZ repeats the view-change
// forgery against the speculative protocol: backups speculatively executed
// slot 1 under the honest certificate, so adopting the forged binding would
// force a rollback of committed work. Lowest-counter-value resolution keeps
// the executed binding instead.
func TestWindowViewChangeForgeryRejectedByFlexiZZ(t *testing.T) {
	const n, f = 4, 1
	opA, opB := rollbackOps()
	attacker := &WindowViewChangeForger{OpA: opA, OpB: opB, OpX: forgeOp()}
	c := buildForgerCluster(t, n, f, 2,
		func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 {
				return attacker
			}
			return flexizz.New(cfg)
		}, f+1, 4*time.Second)

	res := c.Run(0, 2500*time.Millisecond)

	if !attacker.CertSent || !attacker.ForgedVCSent {
		t.Fatal("attack never fired")
	}
	if res.Completed == 0 {
		t.Fatal("client never completed; view change should restore liveness")
	}
	for r := types.ReplicaID(1); r < n; r++ {
		_, proto := c.Replica(r)
		p := proto.(*flexizz.Protocol)
		if p.View == 0 {
			t.Fatalf("replica %d never deposed the silent primary; the forged evidence was never adjudicated", r)
		}
		d, ok := p.SlotDigest(1)
		if !ok {
			t.Fatalf("replica %d lost its slot 1 binding", r)
		}
		if d == attacker.BatchX {
			t.Fatalf("replica %d adopted the forged binding for committed slot 1", r)
		}
		if d != attacker.BatchA {
			t.Fatalf("replica %d rebound committed slot 1 away from the attested batch", r)
		}
	}
	// Speculative execution means honest replicas may legitimately trail each
	// other by an in-flight suffix when the run is cut off; agreement requires
	// that replicas at the SAME execution point hold the same state.
	byExec := make(map[types.SeqNum]types.Digest)
	for r := types.ReplicaID(1); r < n; r++ {
		_, proto := c.Replica(r)
		last := proto.(*flexizz.Protocol).Exec.LastExecuted()
		d := c.StateDigestOf(r)
		if prev, ok := byExec[last]; ok && prev != d {
			t.Fatalf("replicas at execution point %d diverged after the forged view change (%v vs %v)", last, prev, d)
		}
		byExec[last] = d
	}
}

// TestAuditSilentOnHonestWindowedRun is the control: an all-honest windowed
// Flexi-BFT cluster working through real load flushes windows, completes
// client transactions, and raises no audit alarm.
func TestAuditSilentOnHonestWindowedRun(t *testing.T) {
	const n, f = 4, 1
	o := obs.New(obs.Config{})
	c := buildWindowedCluster(t, n, f, 4,
		func(_ types.ReplicaID, cfg engine.Config) engine.Protocol {
			return flexibft.New(cfg)
		}, f+1, 8*time.Second, o)

	res := c.Run(100*time.Millisecond, time.Second)

	if res.Completed == 0 {
		t.Fatal("honest windowed cluster made no progress")
	}
	if alarms := o.Audit().Alarms(); len(alarms) != 0 {
		t.Fatalf("honest windowed run raised %d alarms: %v", len(alarms), alarms)
	}
	if len(o.Audit().Windows()) == 0 {
		t.Fatal("no window records: amortized attestation never engaged")
	}
}
