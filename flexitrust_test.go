package flexitrust

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the documented public surface end to end
// for each protocol a downstream user can pick.
func TestPublicAPIQuickstart(t *testing.T) {
	for proto := range Protocol(len(rowKeys)) {
		t.Run(proto.String(), func(t *testing.T) {
			cluster, err := NewCluster(ClusterOptions{
				Protocol:  proto,
				F:         1,
				Clients:   []ClientID{1},
				BatchSize: 2,
				Records:   1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			client := cluster.NewClient(1)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := uint64(0); i < 6; i++ {
				res, err := client.Submit(ctx, Update(i, []byte(fmt.Sprintf("v%d", i))))
				if err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				if string(res) != "OK" {
					t.Fatalf("update result %q", res)
				}
			}
			res, err := client.Submit(ctx, Read(3))
			if err != nil {
				t.Fatal(err)
			}
			if string(res) != "v3" {
				t.Fatalf("read = %q, want v3", res)
			}
		})
	}
}

func TestProtocolMetadata(t *testing.T) {
	if FlexiBFT.N(8) != 25 || MinBFT.N(8) != 17 {
		t.Fatal("replication factors wrong")
	}
	if FlexiZZ.Replies(25, 8) != 17 {
		t.Fatal("Flexi-ZZ reply quorum must be 2f+1")
	}
	if Zyzzyva.Replies(25, 8) != 25 || MinZZ.Replies(17, 8) != 17 {
		t.Fatal("speculative baselines need all replicas on the fast path")
	}
	if PBFT.Replies(25, 8) != 9 {
		t.Fatal("PBFT clients need f+1 matching replies")
	}
	for p := range Protocol(len(rowKeys)) {
		v, err := p.row()
		if err != nil {
			t.Fatalf("protocol %d: %v", int(p), err)
		}
		if v.Meta.Name != p.String() {
			t.Fatalf("protocol %d is %s but resolves to the row %s", int(p), p, v.Meta.Name)
		}
	}
	unknown := Protocol(len(rowKeys))
	if unknown.String() != "Protocol?" || unknown.N(1) != 0 {
		t.Fatalf("an unknown Protocol reads as %s with n = %d", unknown, unknown.N(1))
	}
	if _, err := NewCluster(ClusterOptions{Protocol: unknown}); err == nil {
		t.Fatal("NewCluster accepted an unknown Protocol")
	}
	if _, err := NewShardedCluster(ShardOptions{Protocol: -1}); err == nil {
		t.Fatal("NewShardedCluster accepted an unknown Protocol")
	}
}

// TestGroupParallelFollowsOutOfOrder pins the concurrency mode NewCluster and
// NewShardedCluster give every replica to the row's OutOfOrder: PBFTEA is the
// sequential PBFT-EA, not OPBFT-EA.
func TestGroupParallelFollowsOutOfOrder(t *testing.T) {
	for p := range Protocol(len(rowKeys)) {
		group, err := ClusterOptions{Protocol: p}.group()
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.row()
		if group.Engine.Parallel != v.Meta.OutOfOrder {
			t.Errorf("%s: replicas configured Parallel=%v, the row's OutOfOrder is %v",
				p, group.Engine.Parallel, v.Meta.OutOfOrder)
		}
	}
}

// TestScanAndInsertOps covers the remaining public op builders.
func TestScanAndInsertOps(t *testing.T) {
	cluster, err := NewCluster(ClusterOptions{
		Protocol: FlexiBFT, F: 1, Clients: []ClientID{1}, BatchSize: 1, Records: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	client := cluster.NewClient(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if res, err := client.Submit(ctx, Insert(5000, []byte("x"))); err != nil || string(res) != "OK" {
		t.Fatalf("insert: %q %v", res, err)
	}
	res, err := client.Submit(ctx, Scan(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("scan result %v", res)
	}
}
