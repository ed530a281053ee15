package harness

import (
	"errors"
	"fmt"

	"flexitrust/internal/sim"
)

// Windowed-attestation experiment: the shard-scaling deployment run per
// window size under the identical seed and load, with the audit stream
// counting every trusted-counter access, so the amortization is measured —
// attested accesses per committed request — rather than asserted. Window 1
// is the per-batch baseline (one AppendF per consensus instance); window W
// lets the executing primary certify up to W chained batches with a single
// access (see internal/protocols/common/window.go).

// windowExpBatch shrinks batches from the default 100 so the run forms
// enough batches for windows to fill: at batch 100 the shard-scaling load
// keeps ~1 batch in flight and every "window" would be a timeout-flushed
// singleton, measuring the flush timer rather than the amortization.
const windowExpBatch = 8

// windowExpClients raises the per-shard offered load to keep the pipeline
// deep enough (clients/batch ≈ 32 batches in flight) that a 16-slot window
// fills from live traffic.
const windowExpClients = 256

// windowRow runs the windowed-attestation A/B, per-batch attestation
// against the default pipeline window, and renders one line per
// configuration annotated with attested accesses per committed request and
// the reduction factor over the per-batch arm. Its protocols are the two
// windowed FlexiTrust ones: the host-sequenced baselines (MinBFT/MinZZ)
// ignore AttestWindow — their USIG stream is the sequencing mechanism itself
// and cannot be amortized — so an A/B over them would measure nothing. The
// audit stream counts the accesses, and the run must stay clean: windowed
// accounting raises no alarm on an honest cluster.
func windowRow() Experiment {
	return Experiment{Name: "window",
		Desc:      "windowed amortized attestation A/B: one counter access per pipeline window vs per batch, Flexi-BFT and Flexi-ZZ",
		Protocols: []string{"Flexi-BFT", "Flexi-ZZ"}, Axis: []int{1}, Shards: true, Inner: []int{1, 16},
		title: fmt.Sprintf("Windowed amortized attestation A/B (shared kernel): f=%d, %d clients/shard, batch %d",
			kernelF, windowExpClients, windowExpBatch),
		columns: tableColumns,
		point: func(env Env, proto string, s, w int, prev Point) (Point, error) {
			res, acc, err := env.plainPoint(fmt.Sprintf("window %s S=%d W=%d", proto, s, w), proto, s, windowExpClients,
				func(o *Options) { o.BatchSize = windowExpBatch },
				func(c *sim.Config) { c.Engine.AttestWindow = w })
			op := perOp(acc, res.Completed)
			params := fmt.Sprintf("shards=%d window=%d acc/op=%.4f", s, w, op)
			if base := perOp(prev.Entry.AttestedAccesses, prev.Entry.Completed); prev.Entry.AttestWindow == 1 && base > 0 && op > 0 {
				params += fmt.Sprintf(" (%.1fx fewer accesses)", base/op)
			}
			p := tablePoint(proto, params, res)
			p.Entry = resultEntry("window", proto, s, res, acc)
			p.Entry.AttestWindow = w
			return p, err
		},
		check: func(e BenchEntry) error {
			if e.AttestWindow < 1 {
				return fmt.Errorf("attest window %d", e.AttestWindow)
			}
			if e.AttestedAccesses == 0 || e.Completed == 0 {
				return errors.New("empty window run")
			}
			return nil
		}}
}

// perOp is attested accesses per committed request (0 when nothing
// committed).
func perOp(accesses, completed uint64) float64 {
	if completed == 0 {
		return 0
	}
	return float64(accesses) / float64(completed)
}
