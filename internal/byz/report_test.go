package byz

import (
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/types"
)

// TestForgedPerBatchReportLosesToCommittedSlot mounts the per-batch
// view-change forgery end to end against both FlexiTrust protocols: an honest
// run commits A at slot 1, a byzantine backup binds X to slot 1 on its own
// counter and plants that report as a view-change vote, then the primary
// crashes (two faults, f = 2). The forged vote must never count: the new view
// keeps slot 1 bound to A on every honest replica, and the client makes
// progress again.
func TestForgedPerBatchReportLosesToCommittedSlot(t *testing.T) {
	type flexi interface {
		engine.Protocol
		engine.StatusReporter
		SlotDigest(types.SeqNum) (types.Digest, bool)
	}
	for _, tc := range []struct {
		name string
		mk   func(engine.Config) flexi
		bare bool
	}{
		{"flexibft", func(cfg engine.Config) flexi { return flexibft.New(cfg) }, false},
		{"flexizz", func(cfg engine.Config) flexi { return flexizz.New(cfg) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, f, forgerID = 7, 2, 6
			forger := &ReportForger{OpX: forgeOp(), Bare: tc.bare}
			c := buildForgerCluster(t, n, f, 0,
				func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
					if id == forgerID {
						return forger
					}
					return tc.mk(cfg)
				}, 2*f+1, 4*time.Second)
			honest := func(r types.ReplicaID) flexi {
				_, proto := c.Replica(r)
				return proto.(flexi)
			}
			const crashAt = 20 * time.Millisecond
			var digestA types.Digest
			var before uint64
			c.At(crashAt, func() {
				digestA, _ = honest(1).SlotDigest(1)
				before = uint64(honest(1).Status().LastExecuted)
			})
			c.Crash(0, crashAt)

			c.Run(0, 2500*time.Millisecond)

			if !forger.ForgedVCSent {
				t.Fatal("attack never fired")
			}
			if digestA.IsZero() || before == 0 {
				t.Fatal("the honest run committed nothing before the primary crashed; the test is vacuous")
			}
			for r := types.ReplicaID(1); r < forgerID; r++ {
				st := honest(r).Status()
				if st.View == 0 {
					t.Fatalf("replica %d never deposed the crashed primary; the forged report was never adjudicated", r)
				}
				if uint64(st.LastExecuted) <= before {
					t.Fatalf("replica %d made no progress in the new view (executed %d, %d before the crash)",
						r, st.LastExecuted, before)
				}
				d, ok := honest(r).SlotDigest(1)
				if !ok {
					t.Fatalf("replica %d lost its slot 1 binding", r)
				}
				if d == forger.BatchX {
					t.Fatalf("replica %d adopted the forged binding for committed slot 1", r)
				}
				if d != digestA {
					t.Fatalf("replica %d rebound committed slot 1", r)
				}
			}
		})
	}
}
