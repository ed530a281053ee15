package crypto

import (
	"sync"
	"sync/atomic"
	"testing"

	"flexitrust/internal/types"
)

// eventLoop is a minimal deliver target: completions queue and a pump drains
// them, mimicking a replica's single event goroutine.
type eventLoop struct {
	mu sync.Mutex
	q  []func()
}

func (l *eventLoop) enqueue(f func()) {
	l.mu.Lock()
	l.q = append(l.q, f)
	l.mu.Unlock()
}

func (l *eventLoop) drain() int {
	n := 0
	for {
		l.mu.Lock()
		if len(l.q) == 0 {
			l.mu.Unlock()
			return n
		}
		f := l.q[0]
		l.q = l.q[1:]
		l.mu.Unlock()
		f()
		n++
	}
}

func TestVerifyPoolDeliversCompletions(t *testing.T) {
	loop := &eventLoop{}
	p := NewVerifyPool(2, NewVerifyMemo(0), loop.enqueue)
	defer p.Close()

	var oks, fails atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		key := MemoKey{Kind: KindSig, Signer: types.ReplicaID(i), Digest: types.Digest{byte(i)}}
		p.Submit(key, func() bool { return i%2 == 0 }, func(ok bool) {
			if ok {
				oks.Add(1)
			} else {
				fails.Add(1)
			}
		})
	}
	for oks.Load()+fails.Load() < 20 {
		loop.drain()
	}
	if oks.Load() != 10 || fails.Load() != 10 {
		t.Fatalf("oks=%d fails=%d, want 10/10", oks.Load(), fails.Load())
	}
}

func TestVerifyPoolMemoHitIsSynchronous(t *testing.T) {
	loop := &eventLoop{}
	p := NewVerifyPool(1, NewVerifyMemo(0), loop.enqueue)
	defer p.Close()

	key := MemoKey{Kind: KindAttest, Signer: 1, Value: 7, Digest: types.Digest{9}}
	done := make(chan bool, 1)
	p.Submit(key, func() bool { return true }, func(ok bool) { done <- ok })
	var first bool
	for delivered := false; !delivered; {
		loop.drain() // pump until the worker's completion lands
		select {
		case first = <-done:
			delivered = true
		default:
		}
	}
	if !first {
		t.Fatal("first verification failed")
	}
	// Second submit must complete inline without touching the worker: a
	// check that would fail proves check() was never called.
	var hitOK bool
	completed := false
	p.Submit(key, func() bool { t.Error("memo hit re-ran check"); return false },
		func(ok bool) { hitOK = ok; completed = true })
	if !completed || !hitOK {
		t.Fatalf("memo hit not completed synchronously (completed=%v ok=%v)", completed, hitOK)
	}
	if !p.Memo().Seen(key) {
		t.Fatal("memo lost the key")
	}
}

func TestVerifyPoolFailuresNotCached(t *testing.T) {
	loop := &eventLoop{}
	p := NewVerifyPool(1, NewVerifyMemo(0), loop.enqueue)
	defer p.Close()

	key := MemoKey{Kind: KindSig, Signer: 3, Digest: types.Digest{1, 2, 3}}
	calls := 0
	results := []bool{}
	for i := 0; i < 2; i++ {
		p.Submit(key, func() bool { calls++; return false }, func(ok bool) { results = append(results, ok) })
		for len(results) != i+1 {
			loop.drain()
		}
	}
	if calls != 2 {
		t.Fatalf("check ran %d times, want 2 (failures must not be cached)", calls)
	}
	if results[0] || results[1] {
		t.Fatalf("results = %v, want both false", results)
	}
}

// TestVerifyPoolConcurrentStress hammers the pool from many goroutines —
// repeated keys for cache hits, a concurrent Close mid-flight — and checks
// under -race that every submit completes exactly once.
func TestVerifyPoolConcurrentStress(t *testing.T) {
	loop := &eventLoop{}
	p := NewVerifyPool(4, NewVerifyMemo(64), loop.enqueue)

	const goroutines = 8
	const perG = 200
	var completions atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Pump the event loop continuously, as a replica's runtime would.
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			loop.drain()
			select {
			case <-stop:
				loop.drain()
				return
			default:
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 32 distinct keys per goroutine → heavy memo-hit traffic.
				key := MemoKey{Kind: KindSig, Signer: types.ReplicaID(g), Digest: types.Digest{byte(i % 32)}}
				p.Submit(key, func() bool { return true }, func(bool) { completions.Add(1) })
			}
		}(g)
	}

	// Close while submits are still in flight: post-close submits must fall
	// back to synchronous completion, pre-close jobs must still be delivered.
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()

	wg.Wait()
	<-closed
	for completions.Load() < goroutines*perG {
		loop.drain()
	}
	close(stop)
	pump.Wait()
	if got := completions.Load(); got != goroutines*perG {
		t.Fatalf("completions = %d, want %d", got, goroutines*perG)
	}
}

func TestVerifyMemoBounded(t *testing.T) {
	m := NewVerifyMemo(64)
	for i := 0; i < 1000; i++ {
		m.Record(MemoKey{Kind: KindSig, Value: uint64(i)})
	}
	// Two generations of at most cap/2 entries each.
	live := 0
	for i := 0; i < 1000; i++ {
		if m.Seen(MemoKey{Kind: KindSig, Value: uint64(i)}) {
			live++
		}
	}
	if live > 64 {
		t.Fatalf("%d entries live, capacity 64", live)
	}
	// The most recent insert always survives.
	if !m.Seen(MemoKey{Kind: KindSig, Value: 999}) {
		t.Fatal("most recent entry evicted")
	}
	if m.Lookups() == 0 || m.Hits() == 0 {
		t.Fatalf("counters not advancing: lookups=%d hits=%d", m.Lookups(), m.Hits())
	}
	// Nil memo is a valid always-miss cache.
	var nilMemo *VerifyMemo
	nilMemo.Record(MemoKey{})
	if nilMemo.Seen(MemoKey{}) {
		t.Fatal("nil memo reported a hit")
	}
}
