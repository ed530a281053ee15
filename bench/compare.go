package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// series collects one metric's values over repeated runs of one workload.
func series(runs []*outcome, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the interquartile range as a share of the median — the quantity
// the benchmark's acceptance rule is stated in.
func spread(q1, med, q3 float64) float64 { return ratio(q3-q1, med) }

// reportSpread prints median and quartiles per metric over repeated runs.
func reportSpread(spec *benchSpec, runs []*outcome) {
	fmt.Printf("-- %s over %d runs: median [q1 .. q3] spread --\n", runs[0].Workload, len(runs))
	for _, m := range spec.metrics(runs[0].Traced) {
		q1, med, q3 := quartiles(series(runs, m.Name))
		fmt.Printf("%-36s %14.4f [%14.4f .. %14.4f] %6.2f%% %s\n", m.Name, med, q1, q3, 100*spread(q1, med, q3), m.Unit)
	}
}

func loadRuns(path string) (map[string][]*outcome, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*outcome
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	by := make(map[string][]*outcome)
	for _, r := range runs {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// compareFiles applies each end-to-end metric's bound to two sets of runs
// (parent first): a row is regressed when the second median is worse than the
// first by more than the bound, unresolved when either set's spread is wider
// than the bound (the runs cannot tell), ok otherwise.
func compareFiles(spec *benchSpec, parentPath, changePath string) error {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		a, b := parent[w.Name], change[w.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			q1a, medA, q3a := quartiles(series(a, m.Name))
			q1b, medB, q3b := quartiles(series(b, m.Name))
			worse := ratio(medB-medA, medA)
			if m.Better == "higher" {
				worse = -worse
			}
			sp := spread(q1a, medA, q3a)
			if s := spread(q1b, medB, q3b); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				w.Name, m.Name, medA, medB, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return nil
}
