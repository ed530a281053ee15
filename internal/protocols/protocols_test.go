package protocols

import "testing"

// TestLookupMatchesEveryRowOnce checks that no two rows share a key, so every
// spelling resolves to exactly one row.
func TestLookupMatchesEveryRowOnce(t *testing.T) {
	seen := map[string]string{}
	for _, v := range All() {
		k := Key(v.Meta.Name)
		if other, dup := seen[k]; dup {
			t.Fatalf("%s and %s share the key %q", other, v.Meta.Name, k)
		}
		seen[k] = v.Meta.Name
		got, err := Lookup(v.Meta.Name)
		if err != nil || got.Meta.Name != v.Meta.Name {
			t.Fatalf("Lookup(%q) = %q, %v", v.Meta.Name, got.Meta.Name, err)
		}
	}
	if _, err := Lookup("flexi"); err == nil {
		t.Fatal("a prefix resolved")
	}
}

// TestDerivedFacts pins what the rows' Meta implies to the lineup the
// evaluation runs: which variants overlap instances, keep attested logs and
// sequence their counters on the host.
func TestDerivedFacts(t *testing.T) {
	type facts struct{ parallel, keepLog, hostSeq bool }
	want := map[string]facts{
		"Pbft": {true, false, false}, "Zyzzyva": {true, false, false},
		"Pbft-EA": {false, true, true}, "Opbft-ea": {true, true, true},
		"MinBFT": {false, false, true}, "MinZZ": {false, false, true},
		"Flexi-BFT": {true, false, false}, "Flexi-ZZ": {true, false, false},
		"oFlexi-BFT": {false, false, false}, "oFlexi-ZZ": {false, false, false},
	}
	rows := All()
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, v := range rows {
		got := facts{v.Parallel(), v.KeepLog(), v.HostSequenced()}
		if got != want[v.Meta.Name] {
			t.Errorf("%s: (parallel, keepLog, hostSeq) = %v, want %v", v.Meta.Name, got, want[v.Meta.Name])
		}
	}
}
