package runtime

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// defaultClientRetry is ClientConfig.RetryEvery's default.
const defaultClientRetry = time.Second

// crashedBackupClient boots row v at f = 1, stops its highest-numbered backup
// and returns a client of the surviving replicas.
func crashedBackupClient(t *testing.T, v protocols.Variant) *Client {
	t.Helper()
	const f = 1
	n := v.Meta.Replicas(f)
	ecfg := engine.DefaultConfig(n, f)
	ecfg.Parallel = v.Parallel()
	ecfg.BatchSize = 1
	cl, err := NewCluster(ClusterConfig{
		N: n, F: f,
		Engine:         ecfg,
		NewProtocol:    v.New,
		Replies:        v.Replies(n, f).Fast,
		Clients:        []types.ClientID{1},
		TrustedProfile: trusted.ProfileSGXEnclave,
		KeepLog:        v.KeepLog(),
		Records:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cl.StopReplica(types.ReplicaID(n - 1))
	return cl.NewClient(1)
}

// TestSubmitSurvivesOneCrashedBackup crashes one backup of every registry row
// at f = 1: each Submit must complete within ClientRetry + CertTimeout. The
// rows whose fast path needs every replica (Zyzzyva, MinZZ) can only finish
// on the commit-certificate slow path.
func TestSubmitSurvivesOneCrashedBackup(t *testing.T) {
	for _, v := range protocols.All() {
		t.Run(protocols.Key(v.Meta.Name), func(t *testing.T) {
			client := crashedBackupClient(t, v)
			for i := 0; i < 3; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), defaultClientRetry+engine.CertTimeout)
				op := &kvstore.Op{Code: kvstore.OpUpdate, Key: uint64(i), Value: []byte(fmt.Sprint(i))}
				out, err := client.Submit(ctx, op.Encode())
				cancel()
				if err != nil {
					t.Fatalf("submit %d with one backup down: %v", i, err)
				}
				if string(out) != "OK" {
					t.Fatalf("submit %d result = %q", i, out)
				}
			}
		})
	}
}

// TestFig7ClaimRuntime is TestFig7Claim's mechanism on the shipped client: with
// one backup crashed, Flexi-ZZ's fast path (n−f of 3f+1) still forms and no
// commit certificate goes out, while MinZZ's (all 2f+1) cannot and every
// request costs a certificate round.
func TestFig7ClaimRuntime(t *testing.T) {
	certs := func(name string) uint64 {
		v, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		client := crashedBackupClient(t, v)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for i := 0; i < 5; i++ {
			op := &kvstore.Op{Code: kvstore.OpUpdate, Key: uint64(i), Value: []byte("v")}
			if _, err := client.Submit(ctx, op.Encode()); err != nil {
				t.Fatalf("%s submit %d: %v", name, i, err)
			}
		}
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.core.CertsSent()
	}
	if n := certs("Flexi-ZZ"); n != 0 {
		t.Errorf("Flexi-ZZ sent %d commit certificates under one crash; its fast path tolerates f failures", n)
	}
	if n := certs("MinZZ"); n == 0 {
		t.Error("MinZZ sent no commit certificate with a replica down; its fast path needs all 2f+1")
	}
}
