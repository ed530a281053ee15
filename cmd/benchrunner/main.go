// Command benchrunner regenerates the paper's evaluation figures and tables
// on the discrete-event harness and prints them as text tables.
//
// Usage:
//
//	benchrunner -exp all            # every experiment, quick scale
//	benchrunner -exp fig6i -full    # one experiment at publication scale
//	benchrunner -exp shard -scale 16 -shards 1,4                # CI smoke
//	benchrunner -bench-out BENCH_baseline.json -scale 16        # record baseline
//	benchrunner -bench-validate BENCH_baseline.json             # schema check
//	benchrunner -exp shard -scale 16 -obs-dump obs.json         # observability export per run
//	benchrunner -list
//
// Experiments: fig1, fig5, fig6i, fig6ii, fig6iv, fig6vi, fig7, fig8, fig9,
// shard, txn, rebalance, failover, reads, window.
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
)

// experiment couples a name with its runner.
type experiment struct {
	name, desc string
	run        func(scale harness.Scale) string
}

// shardCounts holds the -shards sweep for the shard experiment (nil =
// default 1,2,4,8).
var shardCounts []int

// experiments lists every reproducible figure/table.
func experiments() []experiment {
	return []experiment{
		{"fig1", "qualitative protocol comparison matrix",
			func(harness.Scale) string { return harness.Fig1Matrix() }},
		{"fig5", "trusted counter + signature attestation costs on Pbft (1 worker)",
			func(s harness.Scale) string { return harness.Fig5(s).String() }},
		{"fig6i", "throughput vs latency, 4k-80k clients, f=8",
			func(s harness.Scale) string { return harness.Fig6Throughput(nil, s).String() }},
		{"fig6ii", "scalability, f=4..32",
			func(s harness.Scale) string { return harness.Fig6Scalability(nil, s).String() }},
		{"fig6iv", "batch size sweep 10..5000, f=8",
			func(s harness.Scale) string { return harness.Fig6Batching(nil, s).String() }},
		{"fig6vi", "wide-area replication across 1..6 regions, f=20",
			func(s harness.Scale) string { return harness.Fig6WAN(nil, s).String() }},
		{"fig7", "single non-primary replica failure",
			func(s harness.Scale) string { return harness.Fig7Failure(nil, s).String() }},
		{"fig8", "trusted-counter access cost sweep at 97 replicas",
			func(s harness.Scale) string { return harness.Fig8TCSweep(nil, s).String() }},
		{"fig9", "throughput-per-machine, Flexi-ZZ vs MinZZ",
			func(s harness.Scale) string { return harness.Fig9PerMachine(nil, s).String() }},
		{"shard", "shard scaling: co-located consensus groups in one shared kernel, FlexiTrust vs MinBFT/MinZZ",
			func(s harness.Scale) string { return harness.FigShardScaling(shardCounts, s).String() }},
		{"txn", "cross-shard 2PC transactions: attested commit point under co-location, FlexiBFT vs MinBFT",
			func(s harness.Scale) string { return harness.FigTxnScaling(shardCounts, s) }},
		{"rebalance", "live shard rebalancing: mid-workload range handoff with an attested placement flip, FlexiBFT vs MinBFT",
			func(s harness.Scale) string { return harness.FigRebalance(shardCounts, s) }},
		{"failover", "per-shard failover: primary crash mid-workload, health-driven evacuation as an attested placement change, FlexiBFT vs MinBFT",
			func(s harness.Scale) string { return harness.FigFailover(shardCounts, s) }},
		{"reads", "leased linearizable reads A/B under a read-heavy mix, lease on vs off at 1 and 4 shards",
			func(s harness.Scale) string { return harness.FigReadLease(shardCounts, s).String() }},
		{"window", "windowed amortized attestation A/B: one counter access per pipeline window vs per batch, Flexi-BFT and Flexi-ZZ",
			func(s harness.Scale) string { return harness.FigAttestWindow(shardCounts, s).String() }},
	}
}

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
	shards := flag.String("shards", "", "comma-separated shard counts for -exp shard / txn / rebalance / failover / reads (defaults 1,2,4,8 / 4 / 4 / 4 / 1,4)")
	list := flag.Bool("list", false, "list experiments and exit")
	benchOut := flag.String("bench-out", "", "run the BENCH baseline matrix at -scale and write flexitrust-bench/v1 JSON to this path ('-' = stdout)")
	benchValidate := flag.String("bench-validate", "", "validate an existing flexitrust-bench/v1 baseline file and exit")
	obsDump := flag.String("obs-dump", "", "write a JSON array of flexitrust-obs/v1 exports (one per shared-kernel run of the shard/txn/rebalance/failover experiments) to this path ('-' = stdout)")
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
		for _, e := range experiments() {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	var err error
	if shardCounts, err = parseShards(*shards); err != nil {
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
	if *obsDump != "" {
		harness.EnableObsDump()
	}
	ran := false
	for _, e := range experiments() {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Println(e.run(scale))
		fmt.Printf("(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
		os.Exit(2)
	}
	if *obsDump != "" {
		exports := harness.TakeObsDumps()
		if len(exports) == 0 {
			fmt.Fprintln(os.Stderr, "obs-dump: no shared-kernel runs executed (only shard/txn/rebalance/failover contribute exports)")
		}
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
