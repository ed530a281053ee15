package harness

import (
	"testing"
	"time"

	"flexitrust/internal/obs"
	"flexitrust/internal/sim"
)

// TestAuditSilentOnLeasedReads runs the read-lease fast path with the audit
// stream and alert rules attached: the lease grant is one more attested
// access on the group's counter, so a clean leased run must stay exactly as
// silent as a consensus-only one while actually serving leased reads.
func TestAuditSilentOnLeasedReads(t *testing.T) {
	res, accesses, err := ReadLeasePoint(Env{Scale: 16}, "Flexi-BFT", 2, true)
	if err != nil {
		t.Fatal(err) // cleanRun: any alert or audit alarm fails the point
	}
	if res.LeaseReads == 0 {
		t.Fatal("lease on but the fast path served nothing")
	}
	if accesses == 0 {
		t.Fatal("no attested accesses observed; the grant path was not audited")
	}
}

// TestAuditSilentOnCleanRuns attaches the audit stream to an honest run of
// every registry row and asserts it never alarms: counters on
// every host advance monotonically, so the checker's rollback and
// double-mint rules must have zero false positives on clean consensus.
// The trusted protocols must also actually feed the stream (nonzero
// accesses); the untrusted baselines run with no trusted component, so for
// them the test pins the stream at zero.
func TestAuditSilentOnCleanRuns(t *testing.T) {
	for _, spec := range Specs() {
		name, trusted := spec.Name, spec.Meta.TrustedAbstraction != "none"
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.F = 1
			opts.Clients = 64
			Scale(16).apply(&opts)
			cfg := GroupConfig(spec, opts)
			o := obs.New(obs.Config{})
			cfg.Obs = o
			res := sim.NewCluster(cfg).Run(opts.Warmup, opts.Measure)

			if res.Completed == 0 {
				t.Fatalf("%s committed nothing; clean run broken", name)
			}
			if alarms := o.Audit().Alarms(); len(alarms) != 0 {
				t.Fatalf("%s: audit raised %d alarms on an honest run: %v",
					name, len(alarms), alarms)
			}
			accesses := o.Audit().TotalAccesses()
			if trusted && accesses == 0 {
				t.Fatalf("%s uses trusted counters but the audit stream saw no accesses", name)
			}
			if !trusted && accesses != 0 {
				t.Fatalf("%s runs untrusted but the audit stream saw %d accesses", name, accesses)
			}
		})
	}
}

// TestBatchCutsObservedInSimulator: the batcher's cut metrics are the
// engine's, so the simulator records them like the runtime. On a parallel row
// whose window never fills, every cut's oldest request waited at most
// BatchTimeout, and each cut is counted under exactly one reason. The row's
// clients are a closed loop, so some partial batches go out when the loop
// comes back rather than on the timer.
func TestBatchCutsObservedInSimulator(t *testing.T) {
	spec, err := ByName("Flexi-BFT")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.F = 1
	opts.Clients = 64
	Scale(16).apply(&opts)
	cfg := GroupConfig(spec, opts)
	o := obs.New(obs.Config{})
	cfg.Obs = o
	if res := sim.NewCluster(cfg).Run(opts.Warmup, opts.Measure); res.Completed == 0 {
		t.Fatal("committed nothing")
	}
	m := o.Metrics()
	wait := m.Histogram(obs.MBatchWait)
	cuts := func(reason string) uint64 { return m.Counter(obs.ReasonLabel(obs.MBatchCuts, reason)).Value() }
	full, timer, idle, returned := cuts(obs.BatchCutFull), cuts(obs.BatchCutTimer), cuts(obs.BatchCutIdle), cuts(obs.BatchCutReturned)
	if wait.Count() == 0 || wait.Count() != full+timer+idle+returned || idle != 0 {
		t.Fatalf("%d batch waits recorded for %d full, %d timer, %d idle and %d returned cuts (a parallel row cuts none idle)",
			wait.Count(), full, timer, idle, returned)
	}
	if returned == 0 {
		t.Fatalf("no cut on a closed loop's return (%d full, %d timer)", full, timer)
	}
	if limit := cfg.Engine.BatchTimeout; wait.Max() > int64(limit) {
		t.Fatalf("a batch went out %v after its oldest request, want within BatchTimeout %v",
			time.Duration(wait.Max()), limit)
	}
}
