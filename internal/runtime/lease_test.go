package runtime

import (
	"context"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// leaseBed is a 4-replica Flexi-BFT cluster with read leases on, a lease
// granted to node 0 (view 0's primary), and the sequence number of the last
// committed operation.
type leaseBed struct {
	cl     *Cluster
	writer *Client // submits through consensus
	reader *Client // issues lease reads
	seq    types.SeqNum
}

func startLeaseBed(t *testing.T) *leaseBed {
	t.Helper()
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 1
	ecfg.BatchTimeout = time.Millisecond
	ecfg.ReadLease = true
	ecfg.LeaseDuration = time.Minute
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		Clients:        []types.ClientID{1, 2},
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	b := &leaseBed{cl: cl, writer: cl.NewClient(1), reader: cl.NewClient(2)}
	b.submit(t, kvstore.EncodeLeaseGrant(ecfg.LeaseDuration))
	// The grant is acknowledged by f+1 replicas; wait for the primary's own
	// execution of it.
	waitFor(t, "primary lease", func() bool { _, active := cl.Node(0).LeaseState(); return active })
	return b
}

func (b *leaseBed) submit(t *testing.T, op *kvstore.Op) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, seq, err := b.writer.SubmitSeq(ctx, op.Encode())
	if err != nil {
		t.Fatal(err)
	}
	b.seq = seq
}

// readAsync issues a lease read at node 0 and delivers its outcome.
func (b *leaseBed) readAsync(key uint64, fence types.SeqNum, timeout time.Duration) <-chan *types.LeaseReadReply {
	out := make(chan *types.LeaseReadReply, 1)
	go func() {
		reply, _ := b.reader.LeaseRead(context.Background(), 0, key, fence, timeout)
		out <- reply // nil on timeout
	}()
	return out
}

func (b *leaseBed) parkedAt0() int { return b.cl.Node(0).Parked() }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLeaseReadParksBehindFence: a read whose fence is one ahead of the
// primary's read view is neither refused nor answered early — it is answered,
// with the value that execution wrote, as soon as the view gets there.
func TestLeaseReadParksBehindFence(t *testing.T) {
	b := startLeaseBed(t)
	replyCh := b.readAsync(7, b.seq+1, 10*time.Second)
	waitFor(t, "read to park", func() bool { return b.parkedAt0() == 1 })
	select {
	case r := <-replyCh:
		t.Fatalf("read behind the fence answered before the view caught up: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	b.submit(t, &kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("fenced")})
	r := <-replyCh
	if r == nil || r.Status != types.LeaseReadOK || string(r.Value) != "fenced" || r.Watermark < b.seq {
		t.Fatalf("parked read answered %+v, want the value written at seq %d", r, b.seq)
	}
	if n := b.parkedAt0(); n != 0 {
		t.Fatalf("%d reads still parked", n)
	}
}

// TestParkedReadNotServedAfterRevoke: a lease revoked while a read waits
// turns its answer into NoLease — the tracker is consulted when the read is
// answered, not when it parked.
func TestParkedReadNotServedAfterRevoke(t *testing.T) {
	b := startLeaseBed(t)
	replyCh := b.readAsync(7, b.seq+1, 10*time.Second)
	waitFor(t, "read to park", func() bool { return b.parkedAt0() == 1 })
	// The protocol holds the host's tracker: revoke it as a view change would.
	b.cl.Node(0).Protocol().(*flexibft.Protocol).Cfg.Lease.Revoke()
	b.submit(t, &kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("after-revoke")})
	if r := <-replyCh; r == nil || r.Status != types.LeaseReadNoLease || r.Value != nil {
		t.Fatalf("parked read answered %+v after revoke, want NoLease", r)
	}
}

// TestParkedReadDroppedAfterStop: a stopped node answers no parked read, even
// if an execution drains the parking list afterwards.
func TestParkedReadDroppedAfterStop(t *testing.T) {
	b := startLeaseBed(t)
	replyCh := b.readAsync(7, b.seq+1, 200*time.Millisecond)
	waitFor(t, "read to park", func() bool { return b.parkedAt0() == 1 })
	n := b.cl.Node(0)
	n.Stop()
	n.Execute(b.seq+1, &types.Batch{})
	if r := <-replyCh; r != nil {
		t.Fatalf("stopped node answered a parked read: %+v", r)
	}
}

// TestParkedReadOverflowRefusesOldest: parking is bounded; when it is full the
// oldest read is refused (its client pays a consensus read) and the newcomer
// takes its place.
func TestParkedReadOverflowRefusesOldest(t *testing.T) {
	b := startLeaseBed(t)
	replyCh := b.readAsync(7, b.seq+1, 10*time.Second)
	waitFor(t, "read to park", func() bool { return b.parkedAt0() == 1 })
	n := b.cl.Node(0)
	for i := 0; i < engine.MaxParkedReads; i++ {
		// Reads of clients with no endpoint: their answers go nowhere.
		n.Deliver(-1, &types.LeaseRead{Client: types.ClientID(1000 + i), ReadNo: 1, Key: 7, Fence: b.seq + 1})
	}
	if r := <-replyCh; r == nil || r.Status != types.LeaseReadRefused {
		t.Fatalf("evicted read answered %+v, want Refused", r)
	}
	if got := b.parkedAt0(); got != engine.MaxParkedReads {
		t.Fatalf("%d reads parked, want the bound %d", got, engine.MaxParkedReads)
	}
}
