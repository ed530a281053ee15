package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// TestClientResendBackoff pins the client's complaint schedule: one send to
// the believed primary, then re-broadcasts to every replica after
// RetryEvery/8, doubling up to RetryEvery, and silence once the reply quorum
// is in. Timers never fire early, so every gap has an exact lower bound; the
// upper bounds leave each gap its own length again of scheduling slack.
func TestClientResendBackoff(t *testing.T) {
	const (
		n, f  = 4, 1
		retry = 400 * time.Millisecond
	)
	gaps := []time.Duration{retry / 8, retry / 4, retry / 2, retry, retry}
	ring, err := crypto.NewKeyring(5, n, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTransport{}
	client := NewClient(ClientConfig{ID: 1, N: n, F: f, Transport: rec, Keyring: ring, RetryEvery: retry})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.Submit(ctx, []byte("op"))
		done <- err
	}()
	rounds := 1 + len(gaps)*n // the request, then n resends per gap
	for rec.sent() < rounds {
		if ctx.Err() != nil {
			t.Fatalf("only %d of %d sends went out", rec.sent(), rounds)
		}
		time.Sleep(time.Millisecond)
	}
	for r := types.ReplicaID(1); r <= f+1; r++ {
		rec.handler(&wire.Envelope{From: r, Msg: &types.Response{Replica: r, Seq: 1,
			Results: []types.Result{{Client: 1, ReqNo: 1, Value: []byte("OK")}}}})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	answered := rec.sent()
	time.Sleep(retry + retry/8)
	if late := rec.sent() - answered; late != 0 {
		t.Fatalf("%d sends after the reply quorum", late)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if _, ok := rec.envs[0].Msg.(*types.ClientRequest); !ok || rec.to[0] != transport.ReplicaAddr(0) {
		t.Fatalf("first send %T to %v, want the request to replica 0", rec.envs[0].Msg, rec.to[0])
	}
	last := rec.at[0]
	for round, gap := range gaps {
		first := 1 + round*n
		for i := 0; i < n; i++ {
			if _, ok := rec.envs[first+i].Msg.(*types.ClientResend); !ok || rec.to[first+i] != transport.ReplicaAddr(int32(i)) {
				t.Fatalf("resend round %d send %d: %T to %v, want a ClientResend to replica %d",
					round, i, rec.envs[first+i].Msg, rec.to[first+i], i)
			}
		}
		if got := rec.at[first].Sub(last); got < gap || got >= 2*gap {
			t.Fatalf("resend round %d came %v after the previous one, want [%v, %v)", round, got, gap, 2*gap)
		}
		last = rec.at[first]
	}
}

// TestUnprovisionedClientFailsAtOnce: a client id the keyring has no keys for
// cannot authenticate a request, and every replica would drop one it sent, so
// Submit returns an error at once and sends nothing.
func TestUnprovisionedClientFailsAtOnce(t *testing.T) {
	ring, err := crypto.NewKeyring(5, 4, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTransport{}
	client := NewClient(ClientConfig{ID: 7, N: 4, F: 1, Transport: rec, Keyring: ring})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	if _, err := client.Submit(ctx, []byte("op")); err == nil {
		t.Fatal("an unprovisioned client's Submit succeeded")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("Submit took %v to fail", waited)
	}
	if n := rec.sent(); n != 0 {
		t.Fatalf("an unprovisioned client sent %d messages", n)
	}
}

// yieldingTransport records like recordingTransport, but yields the processor
// before it records: a goroutine that sends after another took its request
// number gets every chance to overtake it.
type yieldingTransport struct{ recordingTransport }

func (y *yieldingTransport) Send(to transport.Addr, env *wire.Envelope) {
	goruntime.Gosched()
	y.recordingTransport.Send(to, env)
}

// TestConcurrentSubmitsReachThePrimaryInOrder: goroutines that share one
// client send their requests in request-number order. A batch boundary between
// two requests that arrived swapped would leave the older one below the
// primary's high-water mark, never executed.
func TestConcurrentSubmitsReachThePrimaryInOrder(t *testing.T) {
	const (
		n, f      = 4, 1
		rounds    = 20
		parallel  = 8
		requested = rounds * parallel
	)
	ring, err := crypto.NewKeyring(5, n, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	tp := &yieldingTransport{}
	// No resend falls due in the test: each send is a request's first.
	client := NewClient(ClientConfig{ID: 1, N: n, F: f, Transport: tp, Keyring: ring, RetryEvery: time.Hour})
	for r := 0; r < rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for range parallel {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client.Submit(ctx, []byte("op")) // cancelled below: nobody answers
			}()
		}
		deadline := time.Now().Add(20 * time.Second)
		for tp.sent() < (r+1)*parallel {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d requests sent", r, tp.sent(), (r+1)*parallel)
			}
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		wg.Wait()
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var last uint64
	for i, env := range tp.envs {
		req, ok := env.Msg.(*types.ClientRequest)
		if !ok || tp.to[i] != transport.ReplicaAddr(0) {
			t.Fatalf("send %d: %T to %v, want a request to the primary", i, env.Msg, tp.to[i])
		}
		if req.ReqNo <= last {
			t.Fatalf("send %d: request %d reached the primary after request %d", i, req.ReqNo, last)
		}
		last = req.ReqNo
	}
	if last != requested {
		t.Fatalf("last request %d, want %d", last, requested)
	}
}
