// Command bench is the repository's benchmark: it drives the code that ships
// — runtime nodes and clients over the in-process hub and over TCP loopback,
// sharded clusters through their sessions, the simulator kernel through the
// harness's deployment builder — from outside, in wall-clock time, on inputs
// generated from a seed, and checks that what came back is correct.
//
//	go run ./bench                                   every workload, end-to-end metrics
//	go run ./bench -workload tcp_write -seconds 5    one workload
//	go run ./bench -trace 1                          the per-layer metrics and a trace file per workload
//	go run ./bench -repeat 5 -json a.json            medians and quartiles; results saved for -compare
//	go run ./bench -compare a.json b.json            ok / regressed / unresolved per metric and workload
//
// The last line of a single-workload run is one JSON object: correct,
// attempted, failed, metrics. See README.md for the glossary and
// BENCHMARK.json for the names, units, directions and bounds.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, in BENCHMARK.json order)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 1, "runs per workload, seeds seed..seed+N-1; prints median and quartiles")
	jsonOut := flag.String("json", "", "also write every run's result to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments against the bounds")
	outDir := flag.String("out", "bench/out", "directory trace files are written to")
	protocol := flag.String("protocol", "Flexi-BFT", "protocol of the single-group workloads (no named workload overrides it)")
	flag.Parse()

	// The instrument is sized to small hosts: more Ps than this only adds
	// scheduler noise to a process that hosts replicas and clients alike.
	if goruntime.NumCPU() > 4 {
		goruntime.GOMAXPROCS(4)
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		if err := compareFiles(spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var defs []*workloadDef
	for _, w := range spec.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which this benchmark does not implement", w.Name))
		}
		if *workload == "" || *workload == w.Name {
			defs = append(defs, def)
		}
	}
	if len(defs) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	spinUp()
	var all []*outcome
	failedChecks := 0
	for _, def := range defs {
		var runs []*outcome
		for r := 0; r < *repeat; r++ {
			p := params{seed: *seed + int64(r), seconds: *seconds, traced: *trace != 0, outDir: *outDir, protocol: *protocol, setups: setupRepeats}
			out, err := runWorkload(spec, def, p)
			if err != nil {
				fatal(err)
			}
			failedChecks += report(spec, out, p)
			runs = append(runs, out)
		}
		if *repeat > 1 {
			reportSpread(spec, runs)
		}
		all = append(all, runs...)
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, raw, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The contract's last line: the (last) run's result object.
	last, err := json.Marshal(all[len(all)-1].Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if failedChecks > 0 {
		os.Exit(1)
	}
}

// spinUp keeps every P busy for two seconds before anything is timed. Hosts
// of the class this benchmark is sized to take seconds to bring an idle CPU to
// full speed (measured here: the first 2 s after idle run 25-30% slow), and a
// benchmark process starts from idle; without this, set-up time measures how
// long the host had been idle rather than the code. The set-ups and the
// warm-up keep the CPU busy for the seconds that remain before the window.
func spinUp() {
	const d = 2 * time.Second
	var wg sync.WaitGroup
	for p := 0; p < goruntime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var block [1024]byte
			for start := time.Now(); time.Since(start) < d; {
				for i := 0; i < 64; i++ {
					sum := sha256.Sum256(block[:])
					block[0] = sum[0]
				}
			}
		}()
	}
	wg.Wait()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints one run: every metric by name with its unit, then the
// checks. It returns the number of failed checks.
func report(spec *benchSpec, out *outcome, p params) int {
	mode := "tracing off"
	if p.traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  window=%gs  %s ==\n", out.Workload, p.seed, p.seconds, mode)
	for _, m := range spec.metrics(p.traced) {
		v := out.Result.Metrics[m.Name]
		note := ""
		if m.Name == "latency_p99_ms" {
			note = fmt.Sprintf("   (%d samples, %d beyond)", out.samples, out.beyondP99)
		}
		fmt.Printf("%-36s %16.4f %-6s%s\n", m.Name, v.Value, v.Unit, note)
	}
	if out.traceFile != "" {
		fmt.Printf("trace: %s\n", out.traceFile)
		names := make([]string, 0, len(out.selfTimes))
		for name := range out.selfTimes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := out.selfTimes[name]
			fmt.Printf("  span %-22s n=%-7d mean=%9.1fus  self=%9.1fus\n", name, st.Count,
				usOf(st.TotalNs)/float64(st.Count), usOf(st.SelfNs)/float64(st.Count))
		}
	}
	fmt.Printf("attempted=%d failed=%d\n", out.Result.Attempted, out.Result.Failed)
	failed := 0
	var names []string
	for _, c := range out.checks {
		if c.err != nil {
			failed++
			fmt.Printf("check %s FAILED: %v\n", c.name, c.err)
			continue
		}
		if c.note != "" {
			c.name += " [" + c.note + "]"
		}
		names = append(names, c.name)
	}
	fmt.Printf("checks ok: %s\nchecks_failed = %d\n", strings.Join(names, ", "), failed)
	return failed
}
