// Command failover demonstrates per-shard failover orchestration twice
// over:
//
//  1. Runtime: a three-shard Flexi-BFT deployment loses shard 0's primary
//     mid-session. The health monitor walks the shard through
//     healthy → view-changing → stalled; sessions fail fast against the
//     stalled shard (and report its keys explicitly in cross-shard reads)
//     while the healthy shards keep serving. The failover is then a
//     placement change: ShardedCluster.Failover evacuates shard 0's
//     ranges to the healthy shards — one attested counter access per
//     epoch bump — and the evacuation's own traffic drives the wedged
//     shard's view change, so every key stays readable with exactly one
//     owner.
//
//  2. Simulation: the mid-failure availability contrast on the shared
//     kernel — the same primary crash + evacuation under FlexiBFT vs
//     MinBFT, with probe writers in the victim's range measuring the
//     outage and the crash→flip window.
//
//     go run ./examples/failover
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"flexitrust"
	"flexitrust/internal/harness"
)

func main() {
	cluster, err := flexitrust.NewShardedCluster(flexitrust.ShardOptions{
		Shards:            3,
		Protocol:          flexitrust.FlexiBFT,
		F:                 1,
		Clients:           []flexitrust.ClientID{1},
		BatchSize:         8,
		Records:           10_000,
		ViewChangeTimeout: 150 * time.Millisecond,
		ClientRetry:       200 * time.Millisecond,
		StallTimeout:      250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sess := cluster.Session(1)

	// One fresh key per shard.
	var keys []uint64
	for s := 0; s < cluster.Shards(); s++ {
		for k := uint64(10_000); ; k++ {
			if cluster.ShardFor(k) == s {
				keys = append(keys, k)
				break
			}
		}
	}
	for i, k := range keys {
		if err := sess.Insert(ctx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("3 shards at placement epoch %d, one committed key on each\n", cluster.PlacementEpoch())

	fmt.Println("crashing shard 0's primary ...")
	cluster.StopReplica(0, 0)
	for {
		h := cluster.Health()[0]
		fmt.Printf("  shard 0: %v (view %d, %d replicas up, primary up: %v)\n",
			h.State, h.View, h.ReplicasUp, h.PrimaryUp)
		if h.State == flexitrust.GroupStalled {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The stalled shard fails fast with a diagnosis; the healthy shards
	// keep serving.
	if _, err := sess.Get(ctx, keys[0]); errors.Is(err, flexitrust.ErrShardDegraded) {
		fmt.Printf("read against stalled shard fails fast: %v\n", err)
	}
	if v, err := sess.Get(ctx, keys[1]); err == nil {
		fmt.Printf("healthy shard still serves: key %d = %s\n", keys[1], v)
	}

	fmt.Println("failover: evacuating shard 0 as attested placement changes ...")
	res, err := cluster.Failover(ctx, sess, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range res.Handoffs {
		fmt.Printf("  range handoff %d: group %d → %d, epoch %d, %d records, committed=%v\n",
			h.HandoffID, h.From, h.To, h.Epoch, h.Moved, h.Committed)
	}
	fmt.Printf("placement epoch now %d; shard 0 owns %d ranges\n",
		cluster.PlacementEpoch(), len(cluster.Placement().GroupRanges(0)))
	for i, k := range keys {
		v, err := sess.Get(ctx, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  key %d (now shard %d) = %s (want v%d)\n", k, cluster.ShardFor(k), v, i)
	}
	st := cluster.Stats()
	fmt.Printf("cluster stats: %d committed, %d view change(s) — the evacuation healed the wedged shard\n\n",
		st.Committed, st.ViewChanges)

	// Part 2: the mid-failure availability contrast on the shared kernel.
	fmt.Println("simulated mid-failure availability (shared kernel, 4 co-located groups, primary crash + evacuation):")
	row, err := harness.Lookup("failover")
	if err != nil {
		log.Fatal(err)
	}
	t, err := row.Run(harness.Env{Scale: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t)
}
