// Command client drives a TCP replica cluster (cmd/replica) with a
// YCSB-style closed-loop workload and prints throughput/latency, or issues a
// single ad-hoc operation.
//
//	client -peers ... -protocol flexi-bft -f 1 -ops 10000      # load run
//	client -peers ... -id 1 -set 42=hello                       # one write
//	client -peers ... -id 2 -get 42                             # one read
//
// Give each invocation its own -id: every process numbers its requests from 1,
// and the replicas' at-most-once cache answers a -get under the -id of an
// earlier -set with that write's reply ("OK"), not the value.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols"
	"flexitrust/internal/runtime"
	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

func main() {
	proto := flag.String("protocol", "Flexi-BFT", "protocol the cluster runs, one of "+strings.Join(protocols.Names(), ", ")+" (case and hyphens ignored)")
	f := flag.Int("f", 1, "fault threshold")
	peersArg := flag.String("peers", "", "comma-separated host:port of every replica, in id order")
	id := flag.Uint64("id", 1, "client id (must be within the replicas' -clients range)")
	ops := flag.Int("ops", 1000, "closed-loop operations to run")
	seed := flag.Int64("seed", 42, "shared key-derivation seed")
	get := flag.String("get", "", "read one key and exit")
	set := flag.String("set", "", "key=value: write one record and exit")
	clients := flag.Int("clients", 1024, "client key range provisioned at replicas")
	flag.Parse()

	row, err := protocols.Lookup(*proto)
	if err != nil {
		log.Fatal(err)
	}
	n := row.Meta.Replicas(*f)
	peerList := strings.Split(*peersArg, ",")
	if len(peerList) != n {
		log.Fatalf("need %d peers for %s f=%d, got %d", n, row.Meta.Name, *f, len(peerList))
	}
	book := make(map[int32]string, n)
	for i, hp := range peerList {
		book[int32(i)] = strings.TrimSpace(hp)
	}
	clientIDs := make([]types.ClientID, *clients)
	for i := range clientIDs {
		clientIDs[i] = types.ClientID(i + 1)
	}
	ring, err := crypto.NewKeyring(*seed, n, clientIDs)
	if err != nil {
		log.Fatal(err)
	}
	tp, err := transport.NewTCP(transport.ClientAddr(*id), "127.0.0.1:0", book)
	if err != nil {
		log.Fatal(err)
	}
	defer tp.Close()

	cl := runtime.NewClient(runtime.ClientConfig{
		ID: types.ClientID(*id), N: n, F: *f,
		Transport: tp, Keyring: ring, Replies: row.Replies(n, *f).Fast,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	switch {
	case *get != "":
		key, _ := strconv.ParseUint(*get, 10, 64)
		out, err := cl.Submit(ctx, (&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%q\n", out)
	case *set != "":
		kv := strings.SplitN(*set, "=", 2)
		if len(kv) != 2 {
			log.Fatal("-set wants key=value")
		}
		key, _ := strconv.ParseUint(kv[0], 10, 64)
		out, err := cl.Submit(ctx, (&kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: []byte(kv[1])}).Encode())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
	default:
		gen := workload.NewGenerator(workload.DefaultConfig())
		var lat obs.Histogram
		start := time.Now()
		for i := 0; i < *ops; i++ {
			t0 := time.Now()
			if _, err := cl.Submit(ctx, gen.Next()); err != nil {
				log.Fatalf("op %d: %v", i, err)
			}
			lat.ObserveDuration(time.Since(t0))
		}
		fmt.Printf("throughput=%.0f txn/s mean_lat=%s p50=%s p99=%s n=%d\n",
			float64(lat.Count())/time.Since(start).Seconds(), time.Duration(lat.Mean()).Round(time.Microsecond),
			time.Duration(lat.Quantile(50)).Round(time.Microsecond), time.Duration(lat.Quantile(99)).Round(time.Microsecond),
			lat.Count())
	}
}
