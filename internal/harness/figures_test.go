package harness

import (
	"testing"
	"time"

	"flexitrust/internal/sim"
	"flexitrust/internal/types"
)

// TestFig7Claim verifies the paper's Figure 7 shape at reduced scale: a
// single non-primary crash leaves Flexi-ZZ's single-round fast path intact
// (it needs only n−f responses) while MinZZ — whose fast path needs all
// 2f+1 replicas — is forced onto the commit-certificate slow path for every
// batch, inflating client latency.
func TestFig7Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	run := func(name string, crash bool) sim.Results {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.F = 4
		opts.Clients = 4000
		opts.Warmup = 250 * time.Millisecond
		opts.Measure = 500 * time.Millisecond
		if crash {
			opts.Mutate = func(c *sim.Cluster) {
				c.Crash(types.ReplicaID(spec.N(opts.F)-1), 0)
			}
		}
		return Run(spec, opts)
	}

	fzHealthy := run("Flexi-ZZ", false)
	fzCrash := run("Flexi-ZZ", true)
	mzHealthy := run("MinZZ", false)
	mzCrash := run("MinZZ", true)
	t.Logf("Flexi-ZZ healthy: %v", fzHealthy)
	t.Logf("Flexi-ZZ 1-crash: %v (certs=%d)", fzCrash, fzCrash.CertsSent)
	t.Logf("MinZZ    healthy: %v", mzHealthy)
	t.Logf("MinZZ    1-crash: %v (certs=%d)", mzCrash, mzCrash.CertsSent)

	// Flexi-ZZ never needs the slow path.
	if fzCrash.CertsSent != 0 {
		t.Errorf("Flexi-ZZ sent %d commit certs under one crash; its fast path tolerates f failures", fzCrash.CertsSent)
	}
	if fzCrash.Throughput < 0.7*fzHealthy.Throughput {
		t.Errorf("Flexi-ZZ throughput dropped %0.f -> %0.f under one crash", fzHealthy.Throughput, fzCrash.Throughput)
	}
	// MinZZ falls off its fast path: certificates flow and throughput drops
	// (every batch needs the extra certificate round, and requests caught
	// in interrupted batches stall until client retry).
	if mzCrash.CertsSent == 0 {
		t.Error("MinZZ sent no commit certs despite a crashed replica; fast path should be broken")
	}
	if mzCrash.Throughput > 0.9*mzHealthy.Throughput {
		t.Errorf("MinZZ throughput barely moved under a crash: %.0f -> %.0f",
			mzHealthy.Throughput, mzCrash.Throughput)
	}
}

// TestFig8Claim verifies the Figure 8 mechanism at reduced scale: as the
// trusted-counter access cost rises, every trusted protocol converges to the
// same access-latency-bound throughput (~batch / access), erasing Flexi-ZZ's
// advantage — the paper's "beyond 2.5ms a single access becomes the
// bottleneck".
func TestFig8Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	run := func(name string, access time.Duration) float64 {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.F = 4
		opts.Clients = 4000
		opts.Warmup = 400 * time.Millisecond
		opts.Measure = 2 * time.Second
		opts.TCProfile = opts.TCProfile.WithAccessCost(access)
		return Run(spec, opts).Throughput
	}
	fzFast := run("Flexi-ZZ", time.Millisecond)
	mbFast := run("MinBFT", time.Millisecond)
	fzSlow := run("Flexi-ZZ", 30*time.Millisecond)
	mbSlow := run("MinBFT", 30*time.Millisecond)
	t.Logf("access=1ms:  Flexi-ZZ=%.0f MinBFT=%.0f", fzFast, mbFast)
	t.Logf("access=30ms: Flexi-ZZ=%.0f MinBFT=%.0f", fzSlow, mbSlow)

	// At 1ms, Flexi-ZZ (one access per consensus) clearly wins.
	if fzFast < 1.2*mbFast {
		t.Errorf("at 1ms access Flexi-ZZ (%.0f) should beat MinBFT (%.0f)", fzFast, mbFast)
	}
	// At 30ms both are access-bound and near batch/access ≈ 3333 txn/s.
	if fzSlow > 5000 || mbSlow > 5000 {
		t.Errorf("at 30ms access throughput should collapse to ~3.3k: Flexi-ZZ=%.0f MinBFT=%.0f", fzSlow, mbSlow)
	}
	ratio := fzSlow / mbSlow
	if ratio > 2.5 {
		t.Errorf("at 30ms access the protocols should converge; ratio=%.2f", ratio)
	}
}

// TestFig1MatrixRenders smoke-tests the qualitative table.
func TestFig1MatrixRenders(t *testing.T) {
	e, err := Lookup("fig1")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(Env{})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, name := range []string{"Flexi-BFT", "Flexi-ZZ", "MinBFT", "Pbft-EA"} {
		if !contains(out, name) {
			t.Fatalf("figure 1 matrix missing %s:\n%s", name, out)
		}
	}
}

// contains reports substring presence (avoiding strings import clutter).
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
