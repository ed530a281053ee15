package runtime

import (
	"context"
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
