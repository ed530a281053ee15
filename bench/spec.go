package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json: the one place metric names, units,
// directions and bounds are fixed. The benchmark prints exactly these names
// and refuses to report a run that misses one.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root under `go run ./bench`) or its parent (the package directory under
// `go test`).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", firstErr)
}

// metrics returns the declared metrics of one mode: end-to-end for an
// untraced run, per-layer for a traced one.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one reported value, tagged with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// assemble tags the measured values with the declared units and checks that
// the run produced every declared metric of its mode, finite, and nothing
// else. A benchmark that silently drops a metric is worse than one that
// fails.
func (s *benchSpec) assemble(traced bool, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	for _, m := range s.metrics(traced) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(out) != len(values) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
			}
		}
	}
	return out, nil
}
