package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// The hub calls the receiver's handler on the sender's goroutine: the
// handler has run, and its writes are visible, by the time Send returns.
// Under -race, a delivery on any other goroutine would also be a data race
// on got.
func TestHubRunsHandlerBeforeSendReturns(t *testing.T) {
	hub := NewHub()
	a := hub.Attach(ReplicaAddr(0), 0)
	b := hub.Attach(ReplicaAddr(1), 0)
	var got *wire.Envelope
	b.SetHandler(func(env *wire.Envelope) { got = env })
	for seq := types.SeqNum(1); seq <= 3; seq++ {
		env := &wire.Envelope{From: 0, Msg: &types.Prepare{Seq: seq}}
		a.Send(ReplicaAddr(1), env)
		if got != env {
			t.Fatalf("Send %d returned before the handler saw its envelope", seq)
		}
	}
}

// Attaching an endpoint starts no goroutine; there is none to leak when an
// endpoint is never closed.
func TestHubAttachStartsNoGoroutine(t *testing.T) {
	hub := NewHub()
	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		hub.Attach(ClientAddr(uint64(i)), 0).SetHandler(func(*wire.Envelope) {})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("attaching 64 endpoints took the goroutine count %d -> %d", before, after)
	}
}

// A Send to an endpoint that is closed, or was never attached, calls no
// handler. A closed endpoint's address can be attached again, and closing the
// old endpoint a second time does not take the address from the new one.
func TestHubSendToClosedOrUnknownCallsNoHandler(t *testing.T) {
	hub := NewHub()
	a := hub.Attach(ReplicaAddr(0), 0)
	old := hub.Attach(ReplicaAddr(1), 0)
	var oldCalls, newCalls atomic.Int32
	old.SetHandler(func(*wire.Envelope) { oldCalls.Add(1) })
	env := &wire.Envelope{From: 0, Msg: &types.Prepare{}}

	old.Close()
	a.Send(ReplicaAddr(1), env)
	a.Send(ReplicaAddr(9), env)
	if n := oldCalls.Load(); n != 0 {
		t.Fatalf("a closed endpoint's handler ran %d times", n)
	}

	fresh := hub.Attach(ReplicaAddr(1), 0)
	fresh.SetHandler(func(*wire.Envelope) { newCalls.Add(1) })
	old.Close()
	a.Send(ReplicaAddr(1), env)
	if o, n := oldCalls.Load(), newCalls.Load(); o != 0 || n != 1 {
		t.Fatalf("after re-attaching: old endpoint got %d, new one %d; want 0 and 1", o, n)
	}
}

// Send reads the hub's address table while Attach and Close replace it. Run
// it under -race: endpoints come and go on two goroutines while two more
// send to their addresses and to a peer that stays attached, which must see
// every one of its messages.
func TestHubAttachCloseSendConcurrently(t *testing.T) {
	hub := NewHub()
	stay := hub.Attach(ReplicaAddr(0), 0)
	var got atomic.Int32
	stay.SetHandler(func(*wire.Envelope) { got.Add(1) })
	env := &wire.Envelope{Msg: &types.Prepare{}}
	const rounds = 500
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tp := hub.Attach(ClientAddr(uint64(g*rounds+i%8)), 0)
				tp.SetHandler(func(*wire.Envelope) {})
				tp.Close()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := hub.Attach(ReplicaAddr(int32(1+g)), 0)
			for i := 0; i < rounds; i++ {
				from.Send(ClientAddr(uint64(i%8)), env)
				from.Send(ReplicaAddr(0), env)
			}
		}()
	}
	wg.Wait()
	if n := got.Load(); n != 2*rounds {
		t.Fatalf("the attached peer got %d of %d messages", n, 2*rounds)
	}
}

// A Send to an attached peer is a table read and the peer's handler: it
// allocates nothing.
func TestHubSendAllocatesNothing(t *testing.T) {
	hub := NewHub()
	a := hub.Attach(ReplicaAddr(0), 0)
	hub.Attach(ReplicaAddr(1), 0).SetHandler(func(*wire.Envelope) {})
	env := &wire.Envelope{From: 0, Msg: &types.Prepare{Seq: 1}}
	if n := testing.AllocsPerRun(200, func() { a.Send(ReplicaAddr(1), env) }); n != 0 {
		t.Fatalf("Send to an attached peer allocates %.1f times, want 0", n)
	}
}
