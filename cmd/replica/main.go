// Command replica runs one consensus replica over TCP.
//
// A 4-replica Flexi-BFT cluster on one machine:
//
//	replica -id 0 -protocol flexi-bft -f 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	replica -id 1 ... &  replica -id 2 ... &  replica -id 3 ... &
//
// Then drive it with cmd/client. All nodes must share -seed (it derives the
// deterministic keyring and attestation authority, standing in for the key
// distribution ceremony a production deployment would run).
//
// Operator surface: -admin starts an HTTP listener serving /metrics
// (Prometheus text; ?format=json for the flexitrust-obs/v1 document),
// /healthz, /traces, /journal, /audit, and /alerts. The alert-rules
// engine runs on a ticker over the replica's observer; -flight-dir arms
// the post-mortem flight recorder, which also flushes a final bundle on
// graceful shutdown (SIGINT/SIGTERM → drain, stop the node) and on an
// event-goroutine panic.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols"
	"flexitrust/internal/runtime"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

func main() {
	id := flag.Int("id", 0, "this replica's id (0..n-1)")
	proto := flag.String("protocol", "Flexi-BFT", "protocol, one of "+strings.Join(protocols.Names(), ", ")+" (case and hyphens ignored)")
	f := flag.Int("f", 1, "fault threshold")
	peersArg := flag.String("peers", "", "comma-separated host:port of every replica, in id order")
	batch := flag.Int("batch", 100, "requests per consensus batch")
	clients := flag.Int("clients", 1024, "client ids to provision keys for (1..clients)")
	seed := flag.Int64("seed", 42, "shared key-derivation seed")
	admin := flag.String("admin", "", "admin HTTP listen address for /metrics, /healthz, /traces, /journal, /audit, /alerts (e.g. 127.0.0.1:9100; empty disables)")
	obsSample := flag.Float64("obs-sample", obs.DefaultSampleRate, "trace sampling rate in [0,1]")
	flightDir := flag.String("flight-dir", "", "directory for post-mortem flight-record bundles (empty disables)")
	verbose := flag.Bool("v", false, "verbose protocol logging")
	flag.Parse()

	row, err := protocols.Lookup(*proto)
	if err != nil {
		log.Fatal(err)
	}
	n := row.Meta.Replicas(*f)
	peerList := strings.Split(*peersArg, ",")
	if len(peerList) != n {
		log.Fatalf("protocol %s with f=%d needs %d peers, got %d", row.Meta.Name, *f, n, len(peerList))
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
	auth := trusted.NewHMACAuthority(*seed+1, n)

	tp, err := transport.NewTCP(transport.ReplicaAddr(int32(*id)), book[int32(*id)], book)
	if err != nil {
		log.Fatal(err)
	}
	defer tp.Close()

	// The operator surface: one observer per process, exported over the
	// admin listener, watched by the rules engine, and dumped by the flight
	// recorder on alerts, panics, and shutdown.
	observer := obs.New(obs.Config{SampleRate: *obsSample})
	exporter := &obs.Exporter{O: observer, Label: fmt.Sprintf("replica-%d", *id)}
	flight := obs.NewFlightRecorder(exporter, *flightDir)
	rules := obs.NewRules(observer, obs.RulesConfig{Flight: flight})
	exporter.Rules = rules
	rules.Start(obs.DefaultEvalEvery)

	ecfg := engine.DefaultConfig(n, *f)
	ecfg.BatchSize = *batch
	ecfg.Parallel = row.Parallel()
	ecfg.Observer = observer
	node := runtime.NewNode(runtime.NodeConfig{
		ID:             types.ReplicaID(*id),
		Engine:         ecfg,
		NewProtocol:    row.New,
		Transport:      tp,
		Keyring:        ring,
		Authority:      auth,
		TrustedProfile: trusted.ProfileSGXEnclave,
		KeepLog:        row.KeepLog(),
		Verbose:        *verbose,
		OnPanic: func(r any) {
			// Flush the evidence before the panic propagates.
			rules.Evaluate()
			if path, err := flight.Write("panic"); err == nil && path != "" {
				fmt.Fprintf(os.Stderr, "replica %d: panic flight record: %s\n", *id, path)
			}
		},
	})
	exporter.Healthy = func() bool { return !node.Stopped() }
	fmt.Printf("replica %d/%d (%s, f=%d) listening on %s\n", *id, n, row.Meta.Name, *f, tp.Addr())

	var adminSrv interface {
		Shutdown(context.Context) error
	}
	if *admin != "" {
		srv, addr, err := exporter.Serve(*admin)
		if err != nil {
			log.Fatal(err)
		}
		adminSrv = srv
		fmt.Printf("replica %d admin endpoints on http://%s\n", *id, addr)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("replica %d: draining\n", *id)
	go func() { // a second signal skips the drain
		<-sig
		os.Exit(1)
	}()

	// Graceful shutdown: stop evaluating, close the admin listener, take a
	// final look at the streams, persist the shutdown bundle, then stop the
	// node (its event goroutine and timers).
	rules.Stop()
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		adminSrv.Shutdown(ctx)
		cancel()
	}
	rules.Evaluate()
	if path, err := flight.Write("shutdown"); err == nil && path != "" {
		fmt.Printf("replica %d: shutdown flight record: %s\n", *id, path)
	}
	node.Stop()
}
