package runtime

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// verifyBed is replica 0 of a 4-replica group and attestations minted by
// replica 1's component under the same authority, each one a memo miss.
type verifyBed struct {
	node *Node
	atts []*types.Attestation
}

func newVerifyBed(t *testing.T, count int) *verifyBed {
	t.Helper()
	const n, f = 4, 1
	ring, err := crypto.NewKeyring(5, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	auth := trusted.NewHMACAuthority(6, n)
	node := NewNode(NodeConfig{
		ID:             0,
		Engine:         engine.DefaultConfig(n, f),
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Transport:      &recordingTransport{},
		Keyring:        ring,
		Authority:      auth,
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        100,
	})
	t.Cleanup(node.Stop)
	peer := trusted.New(trusted.Config{Host: 1, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(1)})
	b := &verifyBed{node: node}
	for i := 0; i < count; i++ {
		a, err := peer.AppendF(0, types.Digest{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatal(err)
		}
		b.atts = append(b.atts, a)
	}
	return b
}

// TestRuntimeVerifyCompletesInline: on the runtime an attestation check,
// passing or failing, has run its callback by the time
// VerifyAttestationAsync returns. The simulator still completes it as an
// event of its own (harness.TestCollectBenchRoundTrip pins that).
func TestRuntimeVerifyCompletesInline(t *testing.T) {
	b := newVerifyBed(t, 2)
	forged := *b.atts[1]
	forged.Proof = bytes.Repeat([]byte{0xAA}, len(forged.Proof))
	for _, c := range []struct {
		a    *types.Attestation
		want bool
	}{{b.atts[0], true}, {b.atts[0], true}, {&forged, false}, {nil, false}} {
		onEventLoop(b.node, func() {
			ran, got := false, false
			b.node.VerifyAttestationAsync(c.a, func(ok bool) { ran, got = true, ok })
			if !ran {
				t.Errorf("check of %v had not completed when VerifyAttestationAsync returned", c.a)
			} else if got != c.want {
				t.Errorf("check of %v: %v, want %v", c.a, got, c.want)
			}
		})
	}
}

// TestRuntimeVerifyAllocatesNothing: a memo-miss attestation check on a
// runtime node allocates nothing beyond the caller's own callback, which
// here is made once, up front.
func TestRuntimeVerifyAllocatesNothing(t *testing.T) {
	const runs = 200
	b := newVerifyBed(t, runs+1)
	b.node.Stop() // no event loop left to allocate alongside the check
	passed, next := 0, 0
	done := func(ok bool) {
		if ok {
			passed++
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		b.node.VerifyAttestationAsync(b.atts[next], done)
		next++
	})
	if passed != runs+1 {
		t.Fatalf("%d of %d checks passed", passed, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a memo-miss check allocates %.1f", allocs)
	}
}

// replyingTransport answers each request the moment it is sent, on the
// sender's goroutine, with the f+1 matching responses made for it in
// advance: a client round trip with no goroutine and no allocation of its
// own.
type replyingTransport struct {
	handler transport.Handler
	replies map[uint64][]*wire.Envelope // by request number
}

func (r *replyingTransport) Send(_ transport.Addr, env *wire.Envelope) {
	if req, ok := env.Msg.(*types.ClientRequest); ok {
		for _, reply := range r.replies[req.ReqNo] {
			r.handler(reply)
		}
	}
}
func (r *replyingTransport) SetHandler(h transport.Handler) { r.handler = h }
func (r *replyingTransport) Close() error                   { return nil }

// TestSubmitSteadyStateAllocations: once warm, a Submit to a four-replica
// group allocates its request, laid out with the envelope it first travels
// in and its authenticator vector, and nothing for waiting on or tallying
// its replies.
func TestSubmitSteadyStateAllocations(t *testing.T) {
	const n, f, runs = 4, 1, 200
	ring, err := crypto.NewKeyring(5, n, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	tp := &replyingTransport{replies: make(map[uint64][]*wire.Envelope)}
	for reqNo := uint64(1); reqNo <= runs+2; reqNo++ {
		for r := types.ReplicaID(0); r <= f; r++ {
			tp.replies[reqNo] = append(tp.replies[reqNo], &wire.Envelope{From: r, Msg: &types.Response{
				Replica: r, Seq: types.SeqNum(reqNo), Results: []types.Result{{Client: 1, ReqNo: reqNo}}}})
		}
	}
	client := NewClient(ClientConfig{ID: 1, N: n, F: f, Transport: tp, Keyring: ring, RetryEvery: time.Hour})
	ctx := context.Background()
	op := []byte("op")
	if _, err := client.Submit(ctx, op); err != nil { // arms the resend timer once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := client.Submit(ctx, op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a steady-state Submit allocates %.1f, want 1: its request, with the envelope and the vector", allocs)
	}
}

// TestCancelledSubmitNeverLeaksItsOutcome races a Submit's context expiry
// against the reply quorum that completes it, many times over. Whichever
// wins, the client's next Submit returns its own outcome: a late outcome
// left in a cancelled Submit's channel must never reach a later caller. Run
// it under -race.
func TestCancelledSubmitNeverLeaksItsOutcome(t *testing.T) {
	const n, f = 4, 1
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	ring, err := crypto.NewKeyring(5, n, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTransport{}
	client := NewClient(ClientConfig{ID: 1, N: n, F: f, Transport: rec, Keyring: ring, RetryEvery: time.Hour})
	answer := func(reqNo uint64, value string) {
		for r := types.ReplicaID(0); r <= f; r++ {
			rec.handler(&wire.Envelope{From: r, Msg: &types.Response{Replica: r, Seq: types.SeqNum(reqNo),
				Results: []types.Result{{Client: 1, ReqNo: reqNo, Value: []byte(value)}}}})
		}
	}
	// submit starts a Submit and returns once its request is on the wire.
	submit := func(ctx context.Context) <-chan string {
		out := make(chan string, 1)
		sent := rec.sent()
		go func() {
			v, err := client.Submit(ctx, []byte("op"))
			if err != nil {
				out <- "error"
				return
			}
			out <- string(v)
		}()
		for rec.sent() == sent {
			time.Sleep(10 * time.Microsecond)
		}
		return out
	}
	reqNo := uint64(0)
	for round := 0; round < rounds; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		reqNo++
		first := submit(ctx)
		late := fmt.Sprintf("late %d", reqNo)
		go cancel()
		answer(reqNo, late)
		if v := <-first; v != late && v != "error" {
			t.Fatalf("round %d: the raced Submit returned %q", round, v)
		}

		reqNo++
		next := submit(context.Background())
		own := fmt.Sprintf("own %d", reqNo)
		answer(reqNo, own)
		if v := <-next; v != own {
			t.Fatalf("round %d: the next Submit returned %q, want %q", round, v, own)
		}
	}
}
