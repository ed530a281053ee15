package harness

import "testing"

// TestSpecsComplete checks the registry covers the paper's lineup and that
// every spelling the -protocol flags have accepted still names its row.
func TestSpecsComplete(t *testing.T) {
	want := []string{"Pbft", "Zyzzyva", "Pbft-EA", "Opbft-ea", "MinBFT", "MinZZ",
		"Flexi-BFT", "Flexi-ZZ", "oFlexi-BFT", "oFlexi-ZZ"}
	specs := Specs()
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i, name := range want {
		if specs[i].Name != name {
			t.Fatalf("spec[%d] = %s, want %s", i, specs[i].Name, name)
		}
		if _, err := ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	spellings := map[string]string{
		"pbft": "Pbft", "zyzzyva": "Zyzzyva", "pbft-ea": "Pbft-EA", "pbftea": "Pbft-EA",
		"opbft-ea": "Opbft-ea", "opbftea": "Opbft-ea", "OPBFT-EA": "Opbft-ea",
		"minbft": "MinBFT", "minzz": "MinZZ", "flexi-bft": "Flexi-BFT", "flexibft": "Flexi-BFT",
		"flexi-zz": "Flexi-ZZ", "flexizz": "Flexi-ZZ", "oflexibft": "oFlexi-BFT",
	}
	for spelling, name := range spellings {
		if s, err := ByName(spelling); err != nil || s.Name != name {
			t.Fatalf("ByName(%q) = %q, %v; want %s", spelling, s.Name, err, name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// Sanity: replication factors.
	for _, s := range specs {
		n := s.N(8)
		if n != 17 && n != 25 {
			t.Fatalf("%s: n(8) = %d", s.Name, n)
		}
	}
}
