package harness

import (
	"strings"
	"testing"

	"flexitrust/internal/obs"
)

// TestExperimentNames pins the table's rows and their order: benchrunner
// -list prints them as they stand here.
func TestExperimentNames(t *testing.T) {
	want := []string{"fig1", "fig5", "fig6i", "fig6ii", "fig6iv", "fig6vi", "fig7", "fig8", "fig9",
		"shard", "txn", "rebalance", "failover", "reads", "window"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// TestExperimentErrors: a failed point reaches the caller, naming the row,
// instead of dropping its line and reporting success.
func TestExperimentErrors(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown row name accepted")
	}
	e, err := Lookup("rebalance")
	if err != nil {
		t.Fatal(err)
	}
	e.Axis = []int{1}
	if _, err := e.Run(Env{Scale: 16}); err == nil || !strings.Contains(err.Error(), "rebalance") {
		t.Fatalf("rebalance at 1 shard: err %v, want an error naming the row", err)
	}
}

// TestExportPerKernel: with a sink given, every shared-kernel kernel
// contributes exactly one export — the window row's included.
func TestExportPerKernel(t *testing.T) {
	e, err := Lookup("window")
	if err != nil {
		t.Fatal(err)
	}
	e.Protocols = []string{"Flexi-BFT"}
	var exports []obs.Export
	if _, err := e.Run(Env{Scale: 16, Exports: &exports}); err != nil {
		t.Fatal(err)
	}
	if want := len(e.Inner); len(exports) != want {
		t.Fatalf("%d exports for %d kernels", len(exports), want)
	}
	for _, ex := range exports {
		if ex.Schema != obs.ExportSchema {
			t.Fatalf("export schema %q", ex.Schema)
		}
	}
}
