// Command transactions demonstrates attested cross-shard transactions
// twice over:
//
//  1. Runtime: a two-shard Flexi-BFT deployment commits a multi-shard
//     MultiPut atomically, then a coordinator is crashed mid-transaction —
//     readers see the explicit blocked-by-intent signal instead of a
//     silent stale read, and in-doubt recovery settles the transaction
//     through the attestation log (abort: nothing was published).
//
//  2. Simulation: the commit-point contrast on the shared kernel —
//     FlexiBFT's freely-interleaving attested decision vs MinBFT's
//     host-sequenced one, under real co-location contention.
//
//     go run ./examples/transactions
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flexitrust"
	"flexitrust/internal/harness"
	"flexitrust/internal/txn"
)

func main() {
	cluster, err := flexitrust.NewShardedCluster(flexitrust.ShardOptions{
		Shards:    2,
		Protocol:  flexitrust.FlexiBFT,
		F:         1,
		Clients:   []flexitrust.ClientID{1},
		BatchSize: 8,
		Records:   10_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	sess := cluster.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Two fresh keys per shard: one pair for the committed MultiPut, one
	// pair for the crash demo.
	perShard := map[int][]uint64{}
	for k := uint64(10_000); len(perShard[0]) < 2 || len(perShard[1]) < 2; k++ {
		s := cluster.ShardFor(k)
		if len(perShard[s]) < 2 {
			perShard[s] = append(perShard[s], k)
		}
	}
	keys := map[int]uint64{0: perShard[0][0], 1: perShard[1][0]}
	doomed0, doomed1 := perShard[0][1], perShard[1][1]
	fmt.Println("== atomic cross-shard MultiPut (runtime, real replicas) ==")
	writes := map[uint64][]byte{keys[0]: []byte("alpha"), keys[1]: []byte("beta")}
	if err := sess.MultiPut(ctx, writes); err != nil {
		log.Fatal(err)
	}
	vals, _, err := sess.MultiGet(ctx, []uint64{keys[0], keys[1]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key %d (shard 0) = %q, key %d (shard 1) = %q — one txn, one attested decision\n",
		keys[0], vals[keys[0]].Value, keys[1], vals[keys[1]].Value)

	// Crash a coordinator right after its prepares land: the transaction is
	// in doubt, its intents visible.
	fmt.Println("\n== coordinator crash and in-doubt recovery ==")
	res, err := sess.TxnWithOptions(ctx, []flexitrust.TxnWrite{
		flexitrust.InsertWrite(doomed0, []byte("doomed")),
		flexitrust.InsertWrite(doomed1, []byte("doomed")),
	}, txn.Options{CrashAt: txn.PhaseVoted})
	fmt.Printf("coordinator crashed mid-txn %d: %v\n", res.TxID, err)

	vals, _, err = sess.MultiGet(ctx, []uint64{doomed0, doomed1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("readers are told, not fooled: key %d blocked by txn %d (committed fallback exists=%v)\n",
		doomed0, vals[doomed0].BlockedBy, vals[doomed0].Found)

	d, err := sess.ResolveTxn(ctx, res.TxID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-doubt resolution: commit=%v (no decision was published, so the arbiter minted an abort; counter value %d)\n",
		d.Commit, d.Att.Value)
	vals, _, _ = sess.MultiGet(ctx, []uint64{doomed0, doomed1})
	fmt.Printf("after recovery: blocked-by=%d, value present=%v — all-or-nothing held\n",
		vals[doomed0].BlockedBy, vals[doomed0].Found)

	// The commit-point contrast, measured on the shared kernel.
	fmt.Println("\n== commit-point contrast (simulation mode: shared-kernel, seeded) ==")
	env := harness.Env{Scale: 16}
	for _, proto := range []string{"Flexi-BFT", "MinBFT"} {
		p, err := harness.TxnScalingPoint(env, proto, 4, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s 20%% multi-shard mix: %6.0f txn/s, txn latency %v vs write latency %v (%.2fx), %d decisions = %d attested accesses\n",
			proto, p.Txn.Throughput,
			p.Txn.MeanLat.Round(10*time.Microsecond), p.WriteMeanLat.Round(10*time.Microsecond),
			p.LatencyRatio(), p.Txn.Decisions, p.Txn.TCAccesses)
	}
	fmt.Println("Flexi-BFT's decision access interleaves freely in its namespace; MinBFT's")
	fmt.Println("host-sequenced decision time-shares each machine's attested stream.")
}
