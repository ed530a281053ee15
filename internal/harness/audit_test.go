package harness

import (
	"testing"

	"flexitrust/internal/obs"
	"flexitrust/internal/sim"
)

// TestAuditSilentOnLeasedReads runs the read-lease fast path with the audit
// stream and alert rules attached: the lease grant is one more attested
// access on the group's counter, so a clean leased run must stay exactly as
// silent as a consensus-only one while actually serving leased reads.
func TestAuditSilentOnLeasedReads(t *testing.T) {
	o := obs.New(obs.Config{})
	rules := obs.NewRules(o, obs.RulesConfig{})
	res, err := ReadLeasePointObserved("Flexi-BFT", 2, Scale(16), true, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaseReads == 0 {
		t.Fatal("lease on but the fast path served nothing")
	}
	rules.Evaluate()
	if alerts := rules.Alerts(); len(alerts) != 0 {
		t.Fatalf("%d alerts on a clean leased run (first: %s)", len(alerts), alerts[0].Message)
	}
	if alarms := o.Audit().Alarms(); len(alarms) != 0 {
		t.Fatalf("audit raised %d alarms on a clean leased run: %v", len(alarms), alarms)
	}
	if o.Audit().TotalAccesses() == 0 {
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
