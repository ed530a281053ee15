package harness

import (
	"fmt"
	"strings"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/pbft"
	"flexitrust/internal/sim"
	"flexitrust/internal/types"
)

// Row is one measured configuration in an experiment table.
type Row struct {
	Label  string
	Params string
	Result sim.Results
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-14s %-22s %12s %12s %12s\n", "protocol", "params", "tput(txn/s)", "mean lat", "p99 lat")
	for _, r := range t.Rows {
		// Truncated collectors answered percentiles from a capped sample
		// set; mark the row so the estimate is never mistaken for exact.
		trunc := ""
		if r.Result.Truncated {
			trunc = "  (truncated samples)"
		}
		fmt.Fprintf(&b, "%-14s %-22s %12.0f %12v %12v%s\n",
			r.Label, r.Params, r.Result.Throughput,
			r.Result.MeanLat.Round(10*time.Microsecond), r.Result.P99Lat.Round(10*time.Microsecond), trunc)
	}
	return b.String()
}

// Scale shrinks the measurement windows for quick test runs: 1 = full
// (benchmark quality), larger values divide the windows.
type Scale int

// apply shortens windows by the scale factor.
func (s Scale) apply(o *Options) {
	if s <= 1 {
		return
	}
	o.Warmup /= time.Duration(s)
	o.Measure /= time.Duration(s)
	if o.Warmup < 50*time.Millisecond {
		o.Warmup = 50 * time.Millisecond
	}
	if o.Measure < 100*time.Millisecond {
		o.Measure = 100 * time.Millisecond
	}
}

// Fig1Matrix renders the qualitative protocol comparison (paper Figure 1).
func Fig1Matrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 1: comparing trust-bft protocols ==\n")
	fmt.Fprintf(&b, "%-12s %-9s %-12s %-13s %-13s %-14s %-12s\n",
		"protocol", "replicas", "trusted", "bft-liveness", "out-of-order", "TC memory", "primary-only")
	for _, s := range Specs() {
		m := s.Meta
		fmt.Fprintf(&b, "%-12s %-9s %-12s %-13v %-13v %-14s %-12v\n",
			m.Name, fmt.Sprintf("%df+1", m.Replicas(1)-1), m.TrustedAbstraction,
			m.BFTLiveness, m.OutOfOrder, m.TrustedMemory, m.PrimaryOnlyTC)
	}
	return b.String()
}

// Fig5 reproduces the trusted-counter cost microbenchmark (paper Figure 5):
// PBFT with a single worker thread, f=8, with trusted counter (TC) accesses
// and in-enclave signature attestations (SA) injected into different phases.
func Fig5(scale Scale) *Table {
	type bar struct {
		name, desc string
		policy     pbft.TrustPolicy
		signed     bool
	}
	bars := []bar{
		{"a", "plain Pbft", pbft.TrustPolicy{}, false},
		{"b", "P: TC in Prep", pbft.TrustPolicy{Primary: true}, false},
		{"c", "P: TC+SA in Prep", pbft.TrustPolicy{Primary: true}, true},
		{"d", "P: TC+SA all phases", pbft.TrustPolicy{Primary: true, PrimaryAllPhases: true}, true},
		{"e", "all: TC in Prep", pbft.TrustPolicy{Primary: true, Replicas: true}, false},
		{"f", "all: TC+SA in Prep", pbft.TrustPolicy{Primary: true, Replicas: true}, true},
		{"g", "all: TC+SA all phases", pbft.TrustPolicy{Primary: true, PrimaryAllPhases: true, Replicas: true, ReplicasAllPhases: true}, true},
	}
	t := &Table{Title: "Figure 5: trusted counter (TC) and signature attestation (SA) costs on Pbft (1 worker)"}
	for _, bb := range bars {
		bb := bb
		opts := DefaultOptions()
		opts.Clients = 10000
		scale.apply(&opts)
		cost := sim.DefaultCostModel().SingleWorker()
		if !bb.signed {
			cost = cost.WithTCSign(0)
		}
		opts.Cost = cost
		spec, _ := ByName("Pbft")
		spec.New = func(cfg engine.Config) engine.Protocol {
			p := pbft.New(cfg)
			p.Trust = bb.policy
			return p
		}
		res := Run(spec, opts)
		t.Rows = append(t.Rows, Row{Label: "[" + bb.name + "]", Params: bb.desc, Result: res})
	}
	return t
}

// Fig6Throughput sweeps the client count (paper Figure 6(i): throughput vs
// latency, 4k→80k clients, f=8) for every protocol.
func Fig6Throughput(clients []int, scale Scale) *Table {
	if len(clients) == 0 {
		clients = []int{4000, 8000, 16000, 32000, 48000, 64000, 80000}
	}
	t := &Table{Title: "Figure 6(i): throughput vs latency as clients increase (f=8)"}
	for _, spec := range Specs() {
		for _, c := range clients {
			opts := DefaultOptions()
			opts.Clients = c
			scale.apply(&opts)
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name, Params: fmt.Sprintf("clients=%d", c), Result: res})
		}
	}
	return t
}

// Fig6Scalability sweeps f (paper Figure 6(ii)/(iii): f = 4..32).
func Fig6Scalability(fs []int, scale Scale) *Table {
	if len(fs) == 0 {
		fs = []int{4, 8, 16, 24, 32}
	}
	t := &Table{Title: "Figure 6(ii,iii): scalability as f grows"}
	for _, spec := range Specs() {
		for _, f := range fs {
			opts := DefaultOptions()
			opts.F = f
			scale.apply(&opts)
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name,
				Params: fmt.Sprintf("f=%d n=%d", f, spec.N(f)), Result: res})
		}
	}
	return t
}

// Fig6Batching sweeps batch size (paper Figure 6(iv)/(v): 10..5000, f=8).
func Fig6Batching(sizes []int, scale Scale) *Table {
	if len(sizes) == 0 {
		sizes = []int{10, 100, 500, 1000, 5000}
	}
	t := &Table{Title: "Figure 6(iv,v): batch size sweep (f=8)"}
	for _, spec := range Specs() {
		for _, b := range sizes {
			opts := DefaultOptions()
			opts.BatchSize = b
			scale.apply(&opts)
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name, Params: fmt.Sprintf("batch=%d", b), Result: res})
		}
	}
	return t
}

// Fig6WAN distributes replicas across 1..6 regions (paper Figure 6(vi)/(vii),
// f=20: n=41 for 2f+1 protocols, n=61 for 3f+1).
func Fig6WAN(regions []int, scale Scale) *Table {
	if len(regions) == 0 {
		regions = []int{1, 2, 3, 4, 5, 6}
	}
	t := &Table{Title: "Figure 6(vi,vii): wide-area replication, f=20"}
	for _, spec := range Specs() {
		for _, r := range regions {
			opts := DefaultOptions()
			opts.F = 20
			opts.Clients = 40000
			scale.apply(&opts)
			opts.Topo = sim.WANTopology(spec.N(opts.F), r)
			// WAN slow paths need a client cert timeout above the largest RTT.
			opts.EngineTweak = func(cfg *engine.Config) {
				cfg.ViewChangeTimeout = 3 * time.Second
			}
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name, Params: fmt.Sprintf("regions=%d", r), Result: res})
		}
	}
	return t
}

// Fig7Failure crashes one non-primary replica from the start and sweeps f
// (paper Figure 7). Zyzzyva and MinZZ lose their all-replica fast path and
// degrade; Flexi-ZZ stays on its 2f+1 fast path.
func Fig7Failure(fs []int, scale Scale) *Table {
	if len(fs) == 0 {
		fs = []int{4, 8, 16, 24, 32}
	}
	t := &Table{Title: "Figure 7: one non-primary replica failure"}
	for _, spec := range Specs() {
		for _, f := range fs {
			opts := DefaultOptions()
			opts.F = f
			scale.apply(&opts)
			opts.Mutate = func(c *sim.Cluster) {
				c.Crash(types.ReplicaID(spec.N(f)-1), 0) // non-primary (primary is 0)
			}
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name,
				Params: fmt.Sprintf("f=%d 1-crash", f), Result: res})
		}
	}
	return t
}

// Fig8TCSweep varies the trusted-counter access latency at 97 replicas
// (paper Figure 8): Flexi-ZZ (f=32) vs MinZZ and MinBFT (f=48), with Pbft at
// 97 replicas as the reference line.
func Fig8TCSweep(costs []time.Duration, scale Scale) *Table {
	if len(costs) == 0 {
		costs = []time.Duration{
			1 * time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond,
			2500 * time.Microsecond, 3 * time.Millisecond, 10 * time.Millisecond,
			30 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		}
	}
	t := &Table{Title: "Figure 8: peak throughput vs trusted-counter access cost, 97 replicas"}
	for _, name := range []string{"Flexi-ZZ", "MinZZ", "MinBFT"} {
		spec, _ := ByName(name)
		// 97 machines for everyone: the largest f whose replication factor
		// fits (32 at 3f+1, 48 at 2f+1).
		f := 1
		for spec.N(f+1) <= 97 {
			f++
		}
		for _, c := range costs {
			opts := DefaultOptions()
			opts.F = f
			opts.Clients = 40000
			scale.apply(&opts)
			opts.TCProfile = opts.TCProfile.WithAccessCost(c)
			// Give slow-TC configurations time to commit anything at all.
			if c >= 30*time.Millisecond {
				opts.Measure += 2 * time.Second
			}
			res := Run(spec, opts)
			t.Rows = append(t.Rows, Row{Label: spec.Name,
				Params: fmt.Sprintf("n=%d access=%v", spec.N(f), c), Result: res})
		}
	}
	// Pbft reference (no trusted components, so access cost is irrelevant).
	spec, _ := ByName("Pbft")
	opts := DefaultOptions()
	opts.F = 32
	opts.Clients = 40000
	scale.apply(&opts)
	res := Run(spec, opts)
	t.Rows = append(t.Rows, Row{Label: "Pbft", Params: "n=97 (reference)", Result: res})
	return t
}

// Fig9PerMachine reports throughput divided by replica count (paper
// Figure 9) for Flexi-ZZ vs MinZZ.
func Fig9PerMachine(fs []int, scale Scale) *Table {
	if len(fs) == 0 {
		fs = []int{4, 8, 16, 24, 32}
	}
	t := &Table{Title: "Figure 9: throughput-per-machine (total/replicas)"}
	for _, name := range []string{"Flexi-ZZ", "MinZZ"} {
		spec, _ := ByName(name)
		for _, f := range fs {
			opts := DefaultOptions()
			opts.F = f
			scale.apply(&opts)
			res := Run(spec, opts)
			perMachine := res.Throughput / float64(spec.N(f))
			row := Row{Label: spec.Name,
				Params: fmt.Sprintf("f=%d n=%d per-machine=%.0f", f, spec.N(f), perMachine),
				Result: res}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}
