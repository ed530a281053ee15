package runtime

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// observedCluster is a 4-replica Flexi-BFT cluster with an observer, so that
// the nodes' inbound drops are counted.
func observedCluster(t *testing.T) (*Cluster, *obs.Counter) {
	t.Helper()
	o := obs.New(obs.Config{SampleRate: -1})
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.Observer = o
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		Clients:        []types.ClientID{1},
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, o.Metrics().Counter(obs.MInboundDrops)
}

// fill pushes envelopes at n until its event queue is full.
func fill(n *Node, env *wire.Envelope) {
	for len(n.events) < cap(n.events) {
		n.onEnvelope(env)
	}
}

// Two nodes whose event goroutines each send into the other's full queue
// must both go on: onEnvelope runs on the sender's goroutine, so a push that
// waited for room would leave each loop waiting for the other to drain. The
// messages are dropped and counted instead: at least the one sent first, as
// a loop drains its queue only once its own send has returned.
func TestFullQueuesCannotWedgeTwoNodes(t *testing.T) {
	cl, drops := observedCluster(t)
	a, b := cl.Nodes[0], cl.Nodes[1]
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before the cluster stops, should the test fail first
	var held, sent sync.WaitGroup
	held.Add(2)
	sent.Add(2)
	hold := func(n *Node, peer types.ReplicaID) {
		n.enqueue(func() {
			held.Done()
			<-release
			n.Send(peer, &types.Hello{})
			sent.Done()
		})
	}
	hold(a, 1)
	hold(b, 0)
	held.Wait()
	filler := &wire.Envelope{From: 2, Msg: &types.Hello{}}
	fill(a, filler)
	fill(b, filler)

	before := drops.Value()
	a.onEnvelope(filler)
	if got := drops.Value(); got < before+1 {
		t.Fatalf("a message to a full queue was not counted as dropped (%d -> %d)", before, got)
	}
	free()
	done := make(chan struct{})
	go func() { sent.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two nodes sending into each other's full queues wedged")
	}
	if got := drops.Value(); got < before+2 {
		t.Fatalf("drops %d -> %d, want a cross send counted too", before, got)
	}
}

// A stopped node's onEnvelope returns at once, full queue or not, and counts
// nothing: a crashed replica receives nothing, which is not an overload.
func TestStoppedNodeDropsWithoutCounting(t *testing.T) {
	cl, drops := observedCluster(t)
	n := cl.Nodes[3]
	n.Stop()
	filler := &wire.Envelope{From: 2, Msg: &types.Hello{}}
	done := make(chan struct{})
	go func() {
		fill(n, filler)
		for i := 0; i < 100; i++ {
			n.onEnvelope(filler)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("onEnvelope blocked on a stopped node")
	}
	if got := drops.Value(); got != 0 {
		t.Fatalf("a stopped node counted %d drops, want 0", got)
	}
}

// Leased reads are served on each reader's own goroutine: many readers at one
// primary, reading until every write has committed, must each get the key's
// initial record or a value written to it, and a read fenced at the last
// write must see that write. Run it under -race: the serving path and the
// event goroutine share the read view, the lease tracker and the parking
// list.
func TestConcurrentLeaseReadsWhileWritesCommit(t *testing.T) {
	b := startLeaseBed(t)
	const readers, reads, writes, keys = 8, 200, 40, 4
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	initial := make(map[uint64]string, keys)
	for key := uint64(0); key < keys; key++ {
		reply, err := b.reader.LeaseRead(ctx, 0, key, 0, 5*time.Second)
		if err != nil || reply.Status != types.LeaseReadOK {
			t.Fatalf("key %d before any write: %+v (%v)", key, reply, err)
		}
		initial[key] = string(reply.Value)
	}

	errs := make(chan error, readers)
	written := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-written:
					if i >= reads {
						return
					}
				default:
				}
				key := uint64((r + i) % keys)
				reply, err := b.reader.LeaseRead(ctx, 0, key, 0, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				switch reply.Status {
				case types.LeaseReadOK:
					v := string(reply.Value)
					if v != initial[key] && !strings.HasPrefix(v, fmt.Sprintf("k%d-", key)) {
						errs <- fmt.Errorf("key %d read %q", key, v)
						return
					}
				case types.LeaseReadNotFound:
				default:
					errs <- fmt.Errorf("key %d: lease read status %v", key, reply.Status)
					return
				}
			}
		}(r)
	}
	var last string
	for i := 0; i < writes; i++ {
		key := uint64(i % keys)
		last = fmt.Sprintf("k%d-%d", key, i)
		_, seq, err := b.writer.SubmitSeq(ctx, (&kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: []byte(last)}).Encode())
		if err != nil {
			t.Fatal(err)
		}
		b.seq = seq
	}
	close(written)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	reply, err := b.reader.LeaseRead(ctx, 0, uint64((writes-1)%keys), b.seq, 5*time.Second)
	if err != nil || reply.Status != types.LeaseReadOK || string(reply.Value) != last {
		t.Fatalf("read fenced at the last write got %+v (%v), want %q", reply, err, last)
	}
}
