// Command benchrunner runs the rows of the experiment table in
// internal/harness — the paper's evaluation figures and the sharded layer's
// tables — on the discrete-event harness and prints them as text tables.
//
// Usage:
//
//	benchrunner -list                                           # the rows, in order
//	benchrunner -exp all                                        # every row, quick scale
//	benchrunner -exp fig6i -full                                # one row at publication scale
//	benchrunner -exp shard -scale 16 -shards 1,4                # a shared-kernel row, shorter sweep
//	benchrunner -bench-out BENCH_baseline.json -scale 16        # record baseline
//	benchrunner -bench-validate BENCH_baseline.json             # schema check
//	benchrunner -exp shard -scale 16 -obs-dump obs.json         # observability export per kernel
//
// A point that fails, or breaks its row's invariants, ends the run with
// exit status 1.
//
// Profiling: -cpuprofile / -memprofile write pprof data covering whatever
// the invocation runs (experiments or the baseline matrix), e.g.
//
//	benchrunner -exp shard -scale 16 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"flexitrust/internal/harness"
	"flexitrust/internal/obs"
)

// parseShards turns "1,2,4" into a sweep list.
func parseShards(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list) or 'all'")
	full := flag.Bool("full", false, "publication-scale windows (slower)")
	scaleFlag := flag.Int("scale", 4, "window divisor for quick runs (ignored with -full; larger = shorter)")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts for the shared-kernel rows (shard, txn, rebalance, failover, reads, window); default: each row's own")
	list := flag.Bool("list", false, "list experiments and exit")
	benchOut := flag.String("bench-out", "", "run the BENCH baseline matrix at -scale and write flexitrust-bench/v1 JSON to this path ('-' = stdout)")
	benchValidate := flag.String("bench-validate", "", "validate an existing flexitrust-bench/v1 baseline file and exit")
	obsDump := flag.String("obs-dump", "", "write a JSON array of flexitrust-obs/v1 exports (one per shared-kernel kernel) to this path ('-' = stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *benchValidate != "" {
		data, err := os.ReadFile(*benchValidate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		b, err := harness.ValidateBench(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%s, %d entries, scale %d, seed %d)\n",
			*benchValidate, b.Schema, len(b.Entries), b.Scale, b.Seed)
		return
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Desc)
		}
		return
	}
	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale := harness.Scale(*scaleFlag)
	if scale < 1 {
		scale = 1
	}
	if *full {
		scale = 1
	}
	if *benchOut != "" {
		start := time.Now()
		b, err := harness.CollectBench(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out, err := b.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *benchOut == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*benchOut, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench baseline: %d entries in %v\n",
			len(b.Entries), time.Since(start).Round(time.Millisecond))
		return
	}
	rows := harness.Experiments()
	if *exp != "all" {
		e, err := harness.Lookup(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; try -list\n", err)
			os.Exit(2)
		}
		rows = []harness.Experiment{e}
	}
	env := harness.Env{Scale: scale}
	var exports []obs.Export
	if *obsDump != "" {
		env.Exports = &exports
	}
	for _, e := range rows {
		if shards != nil && e.Shards {
			e.Axis = shards
		}
		start := time.Now()
		t, err := e.Run(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(t)
		fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if *obsDump != "" {
		data, err := json.MarshalIndent(exports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *obsDump == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*obsDump, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs-dump: %d exports\n", len(exports))
	}
}
