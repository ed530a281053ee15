package harness

import (
	"testing"
)

// TestFig6iOrdering checks the paper's headline ordering at the standard
// setup (f=8, LAN, batch 100): every trust-bft protocol is slower than PBFT,
// and the FlexiTrust protocols beat PBFT (Section 9.4). It does not order
// Flexi-BFT against Flexi-ZZ: the paper's Figure 6 puts Flexi-ZZ on top, but
// under the cost model Flexi-BFT comes out ahead (ROADMAP 7(d)).
func TestFig6iOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is expensive")
	}
	tput := make(map[string]float64)
	for _, name := range []string{"Pbft-EA", "MinBFT", "MinZZ", "Pbft", "Flexi-BFT", "Flexi-ZZ", "oFlexi-BFT"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		Scale(2).apply(&opts)
		res := Run(spec, opts)
		tput[name] = res.Throughput
		t.Logf("%-12s f=8 %v", name, res)
	}
	greater := func(a, b string) {
		t.Helper()
		if tput[a] <= tput[b] {
			t.Errorf("expected %s (%.0f) > %s (%.0f)", a, tput[a], b, tput[b])
		}
	}
	// Paper Section 9.4 relations.
	greater("MinBFT", "Pbft-EA")
	greater("MinZZ", "Pbft-EA")
	greater("Pbft", "MinBFT")
	greater("Pbft", "MinZZ")
	greater("Pbft", "Pbft-EA")
	greater("Flexi-BFT", "Pbft")
	greater("Flexi-ZZ", "Pbft")
	greater("Flexi-ZZ", "MinZZ")
	greater("Flexi-BFT", "MinBFT")
	// The ablation: without parallelism FlexiTrust loses to MinZZ.
	greater("MinZZ", "oFlexi-BFT")
}
