// Command sharding demonstrates the sharded deployment twice over:
//
//  1. Runtime: four Flexi-BFT consensus groups — each a real in-process
//     cluster with its own replicas and a private trusted-counter
//     namespace — behind the deterministic keyspace router, serving
//     single-shard writes and a cross-shard read-committed multi-get.
//
//  2. Simulation: the shard-scaling contrast, produced by the shared
//     discrete-event kernel (the default and only simulation mode: all
//     groups co-hosted on one set of machines so trusted-component
//     contention emerges; the old merged-results analytic mode is gone).
//
//     go run ./examples/sharding
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"flexitrust"
	"flexitrust/internal/harness"
)

// oneTrace renders the first sampled trace's span tree, indented by depth.
func oneTrace(o *flexitrust.Observer) string {
	traces := o.Tracer().Snapshot()
	if len(traces) == 0 {
		return ""
	}
	depth := map[uint32]int{}
	var b strings.Builder
	for _, s := range traces[0].Spans {
		d := 0
		if s.Parent != 0 {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		fmt.Fprintf(&b, "  %s%s/%s (%v)\n", strings.Repeat("  ", d), s.Layer, s.Name,
			time.Duration(s.EndNs-s.StartNs).Round(time.Microsecond))
	}
	return b.String()
}

func main() {
	const shards = 4
	cluster, err := flexitrust.NewShardedCluster(flexitrust.ShardOptions{
		Shards:    shards,
		Protocol:  flexitrust.FlexiBFT,
		F:         1,
		Clients:   []flexitrust.ClientID{1},
		BatchSize: 8,
		Records:   10_000,
		// Trace every request (sample rate 1.0) and run the attested-access
		// audit stream; the observability section below asserts on both.
		Observe: flexitrust.ObserveOptions{Enabled: true, SampleRate: 1.0},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	sess := cluster.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fmt.Printf("== sharded Flexi-BFT: %d groups of %d replicas (runtime, real replicas) ==\n",
		shards, flexitrust.FlexiBFT.N(1))

	// Route 32 writes; the router spreads dense keys across all groups.
	perShard := make([]int, shards)
	var keys []uint64
	for k := uint64(0); k < 32; k++ {
		if err := sess.Put(ctx, k, []byte(fmt.Sprintf("value-%d", k))); err != nil {
			log.Fatalf("put key %d: %v", k, err)
		}
		perShard[cluster.ShardFor(k)]++
		keys = append(keys, k)
	}
	for s, n := range perShard {
		fmt.Printf("shard %d: %2d keys committed, watermark seq %d\n",
			s, n, cluster.Watermarks()[s])
	}

	// Cross-shard read-committed multi-get.
	vals, versions, err := sess.MultiGet(ctx, keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-get: %d keys across %d shards, read at versions %v\n",
		len(vals), shards, versions)
	fmt.Printf("  e.g. key 7 (shard %d) = %q\n", cluster.ShardFor(7), vals[7].Value)

	st := cluster.Stats()
	fmt.Printf("cluster: %d ops committed, mean latency %v, p99 %v\n",
		st.Committed, st.MeanLat.Round(time.Microsecond), st.P99Lat.Round(time.Microsecond))

	// Observability: every request above was traced (sample rate 1.0) and
	// every attested counter access audited. A missing trace dump or an
	// audit alarm on this honest run is a bug — fail loudly so the CI
	// smoke catches it.
	o := cluster.Observe()
	traces := o.Tracer().Snapshot()
	if len(traces) == 0 || o.Tracer().Dump() == "" {
		log.Fatal("observability: no traces captured at sample rate 1.0")
	}
	if alarms := o.Audit().Alarms(); len(alarms) != 0 {
		log.Fatalf("observability: audit raised %d alarms on an honest run: %v", len(alarms), alarms)
	}
	spans := 0
	for _, tr := range traces {
		spans += len(tr.Spans)
	}
	fmt.Printf("\n== observability (tracing at 1.0, audit stream on) ==\n")
	fmt.Printf("traces: %d sampled, %d spans; audit: %d attested accesses, 0 alarms\n",
		len(traces), spans, o.Audit().TotalAccesses())
	fmt.Printf("one span tree:\n%s", oneTrace(o))

	// The scaling contrast, regenerated in simulation. Every number below
	// comes from the shared-kernel mode: S groups inside one
	// discrete-event kernel on one set of machines, replica i of group g
	// on machine (i+g) mod M, so co-located groups really contend on each
	// machine's workers and trusted-component timeline. (The former
	// "merged" mode — independent per-group kernels combined under an
	// analytic co-location model — was removed.)
	fmt.Printf("\n== shard scaling (simulation mode: shared-kernel, seeded) ==\n")
	env := harness.Env{Scale: 16}
	for _, proto := range []string{"Flexi-BFT", "MinBFT"} {
		one, _, err := harness.ShardScalingPoint(env, proto, 1)
		if err != nil {
			log.Fatal(err)
		}
		four, _, err := harness.ShardScalingPoint(env, proto, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s 1 shard: %7.0f txn/s   4 co-located shards: %7.0f txn/s  (%.1fx)\n",
			proto, one.Throughput, four.Throughput, four.Throughput/one.Throughput)
	}
	fmt.Println("Flexi-BFT scales because its namespaced AppendF counters interleave freely;")
	fmt.Println("MinBFT stays flat because co-hosted groups time-share each machine's USIG stream.")
}
