package shard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPlacementRefreshRaceUnderLoad drives the stale-epoch race end to end
// under the race detector: sessions loop Do and MultiGet against keys on
// both sides of a migrating range while two rebalances install successor
// placements (epoch 1→2→3) under their feet. Readers must ride through
// every flip — cached-epoch retry on WrongShard/RangeMigrating against
// concurrent installPlacement — with no errors, no stale values, and both
// sessions converged on the final epoch.
func TestPlacementRefreshRaceUnderLoad(t *testing.T) {
	f := newRebFixture(t, 0, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// One key inside the migrating range, one far outside it.
	inKey := f.keys[0]
	outKey := freshKeysOnShard(f.c.Placement(), 1, 1, 300_000)[0]
	if err := f.sess.Insert(ctx, inKey, []byte("steady")); err != nil {
		t.Fatal(err)
	}
	if err := f.sess.Insert(ctx, outKey, []byte("steady")); err != nil {
		t.Fatal(err)
	}

	reader := f.c.Session(2) // caches epoch 1 now; must refresh mid-flight
	var stop atomic.Bool
	var reads atomic.Uint64
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := reader.Get(ctx, inKey)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if !bytes.Equal(got, []byte("steady")) {
					errs <- fmt.Errorf("get read %q mid-flip", got)
					return
				}
				vals, _, err := reader.MultiGet(ctx, []uint64{inKey, outKey})
				if err != nil {
					errs <- fmt.Errorf("multiget: %w", err)
					return
				}
				for k, rr := range vals {
					if rr.Unavailable || !bytes.Equal(rr.Value, []byte("steady")) {
						errs <- fmt.Errorf("multiget key %d = %+v mid-flip", k, rr)
						return
					}
				}
				reads.Add(2)
			}
		}()
	}

	// Two placement flips while the readers run: out to group 1, back to
	// group 0. The second waits until the readers have ridden through the
	// first: were both to finish before the readers' first round trip, the
	// range would be back on its old group and no read would ever be refused.
	if _, err := f.sess.Rebalance(ctx, f.r, 1); err != nil {
		t.Fatal(err)
	}
	for reader.Epoch() < 2 && len(errs) == 0 { // a reader's error is reported below
		if ctx.Err() != nil {
			t.Fatalf("reader session still at epoch %d after the first flip: %v", reader.Epoch(), ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := f.sess.Rebalance(ctx, f.r, 0); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("readers never overlapped the flips")
	}
	if e := f.c.Placement().Epoch(); e != 3 {
		t.Fatalf("cluster at epoch %d after two flips, want 3", e)
	}
	// Both sessions converge on the final epoch through ordinary retries.
	if _, err := reader.Get(ctx, inKey); err != nil {
		t.Fatal(err)
	}
	if e := reader.Epoch(); e != 3 {
		t.Fatalf("reader session stuck at epoch %d, want 3", e)
	}
}
