package harness

import (
	"time"

	"flexitrust/internal/sim"
)

// Simulation-substrate aggregation: the harness runs all S consensus
// groups of a co-located deployment inside ONE discrete-event kernel
// (sim.MultiCluster) — each machine hosts one replica of every group, and
// co-hosted replicas contend on the machine's worker pool and its trusted
// component's timeline. Whether the deployment scales with S is therefore
// an *outcome* of the kernel run, not of a merge model:
//
//   - FlexiTrust (Flexi-BFT, Flexi-ZZ; also untrusted BFT) touches the
//     counter once per consensus, at the primary, internally incremented
//     (AppendF) — each group's counters live in a private namespace inside
//     the shared component, accesses interleave freely, and with each
//     group's primary placed on a different machine the deployment commits
//     near the sum of the group rates.
//
//   - MinBFT/MinZZ/PBFT-EA bind every consensus message to a
//     host-sequenced counter (Append): the hardware attests one
//     totally-ordered stream per machine, consumed gap-free, so the
//     machine's stream must be drained and retargeted every time a
//     different co-hosted group appends (sim.Machine's stream tenancy).
//     Co-located groups end up time-sharing the machine's TC timeline and
//     aggregate throughput stays ~flat no matter how many groups stack.
//
// Aggregate below only sums and weights the per-group results that one
// shared kernel emitted; it applies no co-location model. (The former
// TCSharing/MergeSimResults analytic merge — divide the sum by S for
// host-sequenced protocols — is gone: the contrast it hard-coded now
// emerges from per-machine contention.)

// Aggregate merges per-group results emitted by one shared-kernel run into
// one cluster-level result. Throughput and counters sum; mean/p50 latencies
// are weighted by each group's completions; p99 takes the worst group
// (conservative).
func Aggregate(groups []sim.Results) sim.Results {
	if len(groups) == 0 {
		return sim.Results{}
	}
	var agg sim.Results
	var latWeight float64
	var meanAcc, p50Acc float64
	var leaseWeight, leaseP50Acc float64
	for _, r := range groups {
		agg.Throughput += r.Throughput
		agg.Completed += r.Completed
		agg.Events += r.Events
		agg.Resends += r.Resends
		agg.CertsSent += r.CertsSent
		agg.LeaseReads += r.LeaseReads
		agg.LeaseFallbacks += r.LeaseFallbacks
		w := float64(r.Completed)
		meanAcc += w * float64(r.MeanLat)
		p50Acc += w * float64(r.P50Lat)
		latWeight += w
		lw := float64(r.LeaseReads)
		leaseP50Acc += lw * float64(r.LeaseReadP50)
		leaseWeight += lw
		if r.P99Lat > agg.P99Lat {
			agg.P99Lat = r.P99Lat
		}
	}
	if latWeight > 0 {
		agg.MeanLat = time.Duration(meanAcc / latWeight)
		agg.P50Lat = time.Duration(p50Acc / latWeight)
	}
	if leaseWeight > 0 {
		agg.LeaseReadP50 = time.Duration(leaseP50Acc / leaseWeight)
	}
	return agg
}
