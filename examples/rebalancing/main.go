// Command rebalancing demonstrates live shard rebalancing twice over:
//
//  1. Runtime: a two-shard Flexi-BFT deployment migrates a hash range —
//     with committed keys in it — from group 0 to group 1 while a session
//     that cached the old placement epoch keeps reading and writing. The
//     flip is one attested counter access binding the new placement's
//     epoch and digest; the stale session transparently re-routes. The
//     decision history is then compacted below the stability watermark.
//
//  2. Simulation: the availability-dip contrast on the shared kernel —
//     the same mid-workload migration under FlexiBFT vs MinBFT, with
//     probe writers in the migrating range measuring the freeze→flip
//     window and the post-flip recovery.
//
//     go run ./examples/rebalancing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flexitrust"
	"flexitrust/internal/harness"
)

func main() {
	cluster, err := flexitrust.NewShardedCluster(flexitrust.ShardOptions{
		Shards:    2,
		Protocol:  flexitrust.FlexiBFT,
		F:         1,
		Clients:   []flexitrust.ClientID{1, 2},
		BatchSize: 8,
		Records:   10_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The range to migrate: the lower half of group 0's assignment. Find a
	// few fresh keys whose hash falls inside it.
	full := cluster.Placement().GroupRanges(0)[0]
	r := flexitrust.KeyRange{Start: full.Start, End: full.Start + (full.End-full.Start)/2}
	var keys []uint64
	for k := uint64(10_000); len(keys) < 3; k++ {
		if cluster.ShardFor(k) == 0 && r.Contains(flexitrust.HashKey(k)) {
			keys = append(keys, k)
		}
	}

	fmt.Println("== live range migration (runtime, real replicas) ==")
	mover := cluster.Session(1)
	stale := cluster.Session(2) // caches epoch 1 and is not told about the flip
	for i, k := range keys {
		if err := mover.Insert(ctx, k, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("epoch %d: keys %v live on shard 0\n", cluster.PlacementEpoch(), keys)

	res, err := mover.Rebalance(ctx, r, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("handoff %d committed: epoch %d → %d, %d records exported in %d chunk(s), ONE attested placement access\n",
		res.HandoffID, res.Epoch-1, res.Epoch, res.Moved, res.Chunks)

	// The stale session still routes by epoch 1: its next operation hits
	// the source, is told WRONGSHARD, refreshes, and lands on shard 1.
	val, err := stale.Get(ctx, keys[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stale session (epoch 1) read key %d = %q — transparently re-routed, now at epoch %d\n",
		keys[0], val, stale.Epoch())
	if err := stale.Put(ctx, keys[0], []byte("written-after-flip")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stale session write landed on shard %d (the new owner)\n", cluster.ShardFor(keys[0]))

	// Compaction: the handoff and any settled transactions fall below the
	// stability watermark; shards and the log prune their decision history.
	wm, err := mover.CompactTxnHistory(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision history compacted below stability watermark %d (log now holds %d placement decision(s))\n\n",
		wm, cluster.TxnLogLen())

	// The availability-dip contrast, measured on the shared kernel.
	fmt.Println("== availability dip & recovery (simulation mode: shared-kernel, seeded) ==")
	env := harness.Env{Scale: 16}
	for _, proto := range []string{"Flexi-BFT", "MinBFT"} {
		p, err := harness.FigRebalancePoint(env, proto, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s migration window %8v, worst blocked write %8v, recovery %.2fx, %d attested access(es) per placement change\n",
			proto, p.Reb.MigrationWindow.Round(10*time.Microsecond),
			p.Reb.DipMaxLat.Round(10*time.Microsecond), p.Reb.Recovery(), p.Reb.TCAccesses)
	}
	fmt.Println("Flexi-BFT flips ownership with one freely-interleaving attested access;")
	fmt.Println("MinBFT's host-sequenced component stretches the window the range is frozen.")
}
