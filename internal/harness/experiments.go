package harness

import (
	"fmt"
	"strings"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/pbft"
	"flexitrust/internal/sim"
	"flexitrust/internal/types"
)

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

// Env is what one invocation hands every row it runs.
type Env struct {
	Scale Scale
	// Exports, when non-nil, receives one flexitrust-obs/v1 export per
	// shared-kernel kernel the run builds (benchrunner -obs-dump).
	Exports *[]obs.Export
}

// Point is one measured configuration: the line it renders and, on the
// shared-kernel rows, its BENCH entry.
type Point struct {
	Line   string
	Result sim.Results
	Entry  BenchEntry
}

// Table is a rendered row: a title, a column header, one line per point and
// an optional legend.
type Table struct {
	Title, Columns, Footer string
	Points                 []Point
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s\n", t.Title, t.Columns)
	for _, p := range t.Points {
		b.WriteString(p.Line + "\n")
	}
	if t.Footer != "" {
		b.WriteString(t.Footer + "\n")
	}
	return b.String()
}

// tableColumns heads the rows whose lines are tablePoint's.
var tableColumns = fmt.Sprintf("%-14s %-22s %12s %12s %12s", "protocol", "params", "tput(txn/s)", "mean lat", "p99 lat")

// tablePoint renders one run as a throughput/latency line.
func tablePoint(label, params string, r sim.Results) Point {
	// Truncated collectors answered percentiles from a capped sample set;
	// mark the line so the estimate is never mistaken for exact.
	trunc := ""
	if r.Truncated {
		trunc = "  (truncated samples)"
	}
	return Point{Result: r, Line: fmt.Sprintf("%-14s %-22s %12.0f %12v %12v%s",
		label, params, r.Throughput, r.MeanLat.Round(10*time.Microsecond), r.P99Lat.Round(10*time.Microsecond), trunc)}
}

// Experiment is one row of the experiment table: a figure of the paper's
// evaluation (Section 9) or a table of the sharded layer built on it, the
// sweep it runs, the invariants each point must satisfy and how it renders.
// cmd/benchrunner, CollectBench and the root benchmarks all read
// Experiments.
type Experiment struct {
	Name, Desc string
	// Protocols are measured in this order; nil means every registry row.
	Protocols []string
	// Axis is the swept value: clients, f, batch size, regions, access cost
	// in µs, bar or shard count. A caller that wants a shorter sweep copies
	// the row and sets it.
	Axis []int
	// Shards marks the shared-kernel rows, whose axis is the shard count.
	Shards bool
	// Inner is swept at each axis value: the cross-shard mix in percent
	// (txn), lease off/on (reads), the attestation window (window).
	Inner []int
	// MaxScale caps the window divisor (0: no cap).
	MaxScale Scale

	title, columns, footer string
	// point measures one configuration; prev is the point before it at the
	// same axis value (zero for the first inner value).
	point func(env Env, protocol string, x, v int, prev Point) (Point, error)
	// tail is measured once after the sweep (fig8's Pbft reference line).
	tail func(env Env) (Point, error)
	// check is the row's invariant on a point's BENCH entry; ValidateBench
	// applies it to recorded files too. Nil for rows with no entry.
	check func(BenchEntry) error
}

// orZero makes an empty sweep a single point at 0.
func orZero(xs []int) []int {
	if len(xs) == 0 {
		return []int{0}
	}
	return xs
}

// Run measures the row's points — protocols, then axis, then inner values —
// checks each against the row's invariants and renders them. The first
// failure ends the run, naming the row and the point.
func (e Experiment) Run(env Env) (*Table, error) {
	if e.MaxScale > 0 && env.Scale > e.MaxScale {
		env.Scale = e.MaxScale
	}
	protos := e.Protocols
	if protos == nil {
		for _, s := range Specs() {
			protos = append(protos, s.Name)
		}
	}
	t := &Table{Title: e.title, Columns: e.columns, Footer: e.footer}
	for _, proto := range protos {
		for _, x := range orZero(e.Axis) {
			var prev Point
			for _, v := range orZero(e.Inner) {
				p, err := e.point(env, proto, x, v, prev)
				if err == nil && e.check != nil {
					err = e.checkEntry(p.Entry)
				}
				if err != nil && e.Inner == nil {
					return nil, fmt.Errorf("%s: %s at %d: %w", e.Name, proto, x, err)
				} else if err != nil {
					return nil, fmt.Errorf("%s: %s at %d, inner %d: %w", e.Name, proto, x, v, err)
				}
				t.Points = append(t.Points, p)
				prev = p
			}
		}
	}
	if e.tail != nil {
		p, err := e.tail(env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// Lookup finds a row of the experiment table by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", name)
}

// sweep is the row type of the dedicated-machine figures: each point runs
// one protocol on its own cluster under DefaultOptions at the row's scale,
// with vary applied for the axis value; params labels the line.
func sweep(name, desc, title string, protocols []string, axis []int,
	vary func(o *Options, spec *Spec, x int), params func(spec Spec, x int, r sim.Results) string) Experiment {
	return Experiment{Name: name, Desc: desc, Protocols: protocols, Axis: axis, title: title, columns: tableColumns,
		point: func(env Env, proto string, x, _ int, _ Point) (Point, error) {
			spec, err := ByName(proto)
			if err != nil {
				return Point{}, err
			}
			opts := DefaultOptions()
			env.Scale.apply(&opts)
			vary(&opts, &spec, x)
			res := Run(spec, opts)
			return tablePoint(spec.Name, params(spec, x, res), res), nil
		}}
}

// fig5Bars are Figure 5's bars: trusted counter (TC) accesses and in-enclave
// signature attestations (SA) injected into different phases of Pbft.
var fig5Bars = [...]struct {
	name, desc string
	policy     pbft.TrustPolicy
	signed     bool
}{
	{"a", "plain Pbft", pbft.TrustPolicy{}, false},
	{"b", "P: TC in Prep", pbft.TrustPolicy{Primary: true}, false},
	{"c", "P: TC+SA in Prep", pbft.TrustPolicy{Primary: true}, true},
	{"d", "P: TC+SA all phases", pbft.TrustPolicy{Primary: true, PrimaryAllPhases: true}, true},
	{"e", "all: TC in Prep", pbft.TrustPolicy{Primary: true, Replicas: true}, false},
	{"f", "all: TC+SA in Prep", pbft.TrustPolicy{Primary: true, Replicas: true}, true},
	{"g", "all: TC+SA all phases", pbft.TrustPolicy{Primary: true, PrimaryAllPhases: true, Replicas: true, ReplicasAllPhases: true}, true},
}

// fit97 is the largest f whose replication factor fits 97 machines (32 at
// 3f+1, 48 at 2f+1).
func fit97(spec Spec) int {
	f := 1
	for spec.N(f+1) <= 97 {
		f++
	}
	return f
}

// Experiments is the experiment table, in benchrunner -list order.
func Experiments() []Experiment {
	fs := []int{4, 8, 16, 24, 32}
	return []Experiment{
		{Name: "fig1", Desc: "qualitative protocol comparison matrix",
			title: "Figure 1: comparing trust-bft protocols",
			columns: fmt.Sprintf("%-12s %-9s %-12s %-13s %-13s %-14s %-12s",
				"protocol", "replicas", "trusted", "bft-liveness", "out-of-order", "TC memory", "primary-only"),
			point: func(_ Env, proto string, _, _ int, _ Point) (Point, error) {
				s, err := ByName(proto)
				m := s.Meta
				return Point{Line: fmt.Sprintf("%-12s %-9s %-12s %-13v %-13v %-14s %-12v",
					m.Name, fmt.Sprintf("%df+1", m.Replicas(1)-1), m.TrustedAbstraction,
					m.BFTLiveness, m.OutOfOrder, m.TrustedMemory, m.PrimaryOnlyTC)}, err
			}},
		sweep("fig5", "trusted counter + signature attestation costs on Pbft (1 worker)",
			"Figure 5: trusted counter (TC) and signature attestation (SA) costs on Pbft (1 worker)",
			[]string{"Pbft"}, []int{0, 1, 2, 3, 4, 5, 6},
			func(o *Options, s *Spec, x int) {
				bar := fig5Bars[x]
				o.Clients = 10000
				o.Cost = sim.DefaultCostModel().SingleWorker()
				if !bar.signed {
					o.Cost = o.Cost.WithTCSign(0)
				}
				s.Name = "[" + bar.name + "]"
				s.New = func(cfg engine.Config) engine.Protocol {
					p := pbft.New(cfg)
					p.Trust = bar.policy
					return p
				}
			},
			func(_ Spec, x int, _ sim.Results) string { return fig5Bars[x].desc }),
		sweep("fig6i", "throughput vs latency, 4k-80k clients, f=8",
			"Figure 6(i): throughput vs latency as clients increase (f=8)",
			nil, []int{4000, 8000, 16000, 32000, 48000, 64000, 80000},
			func(o *Options, _ *Spec, c int) { o.Clients = c },
			func(_ Spec, c int, _ sim.Results) string { return fmt.Sprintf("clients=%d", c) }),
		sweep("fig6ii", "scalability, f=4..32", "Figure 6(ii,iii): scalability as f grows",
			nil, fs,
			func(o *Options, _ *Spec, f int) { o.F = f },
			func(s Spec, f int, _ sim.Results) string { return fmt.Sprintf("f=%d n=%d", f, s.N(f)) }),
		sweep("fig6iv", "batch size sweep 10..5000, f=8", "Figure 6(iv,v): batch size sweep (f=8)",
			nil, []int{10, 100, 500, 1000, 5000},
			func(o *Options, _ *Spec, b int) { o.BatchSize = b },
			func(_ Spec, b int, _ sim.Results) string { return fmt.Sprintf("batch=%d", b) }),
		// f=20: n=41 for 2f+1 protocols, n=61 for 3f+1.
		sweep("fig6vi", "wide-area replication across 1..6 regions, f=20",
			"Figure 6(vi,vii): wide-area replication, f=20",
			nil, []int{1, 2, 3, 4, 5, 6},
			func(o *Options, s *Spec, r int) {
				o.F, o.Clients = 20, 40000
				o.Topo = sim.WANTopology(s.N(o.F), r)
				// WAN slow paths need a client cert timeout above the largest RTT.
				o.EngineTweak = func(cfg *engine.Config) { cfg.ViewChangeTimeout = 3 * time.Second }
			},
			func(_ Spec, r int, _ sim.Results) string { return fmt.Sprintf("regions=%d", r) }),
		// One non-primary replica crashed from the start: Zyzzyva and MinZZ
		// lose their all-replica fast path; Flexi-ZZ stays on its 2f+1 one.
		sweep("fig7", "single non-primary replica failure", "Figure 7: one non-primary replica failure",
			nil, fs,
			func(o *Options, s *Spec, f int) {
				o.F = f
				n := s.N(f)
				o.Mutate = func(c *sim.Cluster) { c.Crash(types.ReplicaID(n-1), 0) } // primary is 0
			},
			func(_ Spec, f int, _ sim.Results) string { return fmt.Sprintf("f=%d 1-crash", f) }),
		fig8(),
		sweep("fig9", "throughput-per-machine, Flexi-ZZ vs MinZZ",
			"Figure 9: throughput-per-machine (total/replicas)",
			[]string{"Flexi-ZZ", "MinZZ"}, fs,
			func(o *Options, _ *Spec, f int) { o.F = f },
			func(s Spec, f int, r sim.Results) string {
				return fmt.Sprintf("f=%d n=%d per-machine=%.0f", f, s.N(f), r.Throughput/float64(s.N(f)))
			}),
		shardRow(), txnRow(), rebalanceRow(), failoverRow(), readsRow(), windowRow(),
	}
}

// fig8 varies the trusted-counter access latency at 97 replicas (paper
// Figure 8): Flexi-ZZ (f=32) vs MinZZ and MinBFT (f=48), with Pbft at 97
// replicas as the reference line.
func fig8() Experiment {
	e := sweep("fig8", "trusted-counter access cost sweep at 97 replicas",
		"Figure 8: peak throughput vs trusted-counter access cost, 97 replicas",
		[]string{"Flexi-ZZ", "MinZZ", "MinBFT"},
		[]int{1000, 1500, 2000, 2500, 3000, 10000, 30000, 100000, 200000},
		func(o *Options, s *Spec, us int) {
			c := time.Duration(us) * time.Microsecond
			o.F, o.Clients = fit97(*s), 40000
			o.TCProfile = o.TCProfile.WithAccessCost(c)
			// Give slow-TC configurations time to commit anything at all.
			if c >= 30*time.Millisecond {
				o.Measure += 2 * time.Second
			}
		},
		func(s Spec, us int, _ sim.Results) string {
			return fmt.Sprintf("n=%d access=%v", s.N(fit97(s)), time.Duration(us)*time.Microsecond)
		})
	// Pbft has no trusted components, so the access cost is irrelevant.
	e.tail = func(env Env) (Point, error) {
		spec, err := ByName("Pbft")
		if err != nil {
			return Point{}, err
		}
		opts := DefaultOptions()
		opts.F, opts.Clients = 32, 40000
		env.Scale.apply(&opts)
		return tablePoint("Pbft", "n=97 (reference)", Run(spec, opts)), nil
	}
	return e
}
