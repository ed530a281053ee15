package transport

import (
	"runtime"
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
