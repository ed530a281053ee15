package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

func TestTCPRoundTripBetweenReplicas(t *testing.T) {
	a, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	book := map[int32]string{0: a.Addr()}
	b, err := NewTCP(ReplicaAddr(1), "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan *wire.Envelope, 10)
	a.SetHandler(func(env *wire.Envelope) { got <- env })
	replies := make(chan *wire.Envelope, 10)
	b.SetHandler(func(env *wire.Envelope) { replies <- env })

	// b dials a, handshakes, delivers; the transport stamps identity.
	b.Send(ReplicaAddr(0), &wire.Envelope{From: 1,
		Msg: &types.Prepare{View: 1, Seq: 9, Replica: 1}})
	select {
	case env := <-got:
		if env.From != 1 || env.IsClient {
			t.Fatalf("envelope identity = %+v, want replica 1", env)
		}
		if p, ok := env.Msg.(*types.Prepare); !ok || p.Seq != 9 {
			t.Fatalf("message = %#v", env.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}

	// a replies to b over the same (reused inbound) connection.
	a.Send(ReplicaAddr(1), &wire.Envelope{From: 0,
		Msg: &types.Commit{View: 1, Seq: 9, Replica: 0}})
	select {
	case env := <-replies:
		if env.From != 0 {
			t.Fatalf("reply identity = %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply never arrived")
	}
}

func TestTCPClientIdentityStamped(t *testing.T) {
	srv, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := make(chan *wire.Envelope, 1)
	srv.SetHandler(func(env *wire.Envelope) { got <- env })

	cli, err := NewTCP(ClientAddr(42), "127.0.0.1:0", map[int32]string{0: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// A lying body: claims client 7; the transport must stamp 42.
	cli.Send(ReplicaAddr(0), &wire.Envelope{Client: 7, IsClient: true,
		Msg: &types.ClientRequest{Client: 7, ReqNo: 1, Op: []byte("x")}})
	select {
	case env := <-got:
		if !env.IsClient || env.Client != 42 {
			t.Fatalf("identity = %+v, want client 42", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request never arrived")
	}

	// And the replica can reply to the client over the inbound conn.
	cliGot := make(chan *wire.Envelope, 1)
	cli.SetHandler(func(env *wire.Envelope) { cliGot <- env })
	srv.Send(ClientAddr(42), &wire.Envelope{From: 0, Msg: &types.Response{Replica: 0, Seq: 1}})
	select {
	case <-cliGot:
	case <-time.After(2 * time.Second):
		t.Fatal("response never arrived")
	}
}

func TestHubDelivery(t *testing.T) {
	hub := NewHub()
	a := hub.Attach(ReplicaAddr(0), 8)
	b := hub.Attach(ReplicaAddr(1), 8)
	defer a.Close()
	defer b.Close()
	got := make(chan *wire.Envelope, 1)
	b.SetHandler(func(env *wire.Envelope) { got <- env })
	a.Send(ReplicaAddr(1), &wire.Envelope{From: 0, Msg: &types.Prepare{Seq: 3}})
	select {
	case env := <-got:
		if env.Msg.(*types.Prepare).Seq != 3 {
			t.Fatalf("wrong message: %#v", env.Msg)
		}
	case <-time.After(time.Second):
		t.Fatal("hub never delivered")
	}
	// Send to a missing endpoint is a silent no-op.
	a.Send(ReplicaAddr(9), &wire.Envelope{From: 0, Msg: &types.Prepare{}})
}

// recvWithin waits for one envelope on ch.
func recvWithin(t *testing.T, ch <-chan *wire.Envelope, d time.Duration, what string) *wire.Envelope {
	t.Helper()
	select {
	case env := <-ch:
		return env
	case <-time.After(d):
		t.Fatalf("%s never arrived", what)
		return nil
	}
}

// A client that goes away and comes back under the same id must be reachable
// again: the replica's route follows the newest Hello, and a connection whose
// reader has ended is no longer a route.
func TestTCPClientReconnectStillReceivesReplies(t *testing.T) {
	srv, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	requests := make(chan *wire.Envelope, 4)
	srv.SetHandler(func(env *wire.Envelope) { requests <- env })
	book := map[int32]string{0: srv.Addr()}
	request := func(reqNo uint64) *wire.Envelope {
		return &wire.Envelope{Msg: &types.ClientRequest{Client: 42, ReqNo: reqNo, Op: []byte("x")}}
	}

	first, err := NewTCP(ClientAddr(42), "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	first.Send(ReplicaAddr(0), request(1))
	recvWithin(t, requests, 2*time.Second, "first endpoint's request")
	first.Close()

	second, err := NewTCP(ClientAddr(42), "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	replies := make(chan *wire.Envelope, 16)
	second.SetHandler(func(env *wire.Envelope) { replies <- env })
	second.Send(ReplicaAddr(0), request(2))
	recvWithin(t, requests, 2*time.Second, "second endpoint's request")

	// The replica keeps answering, as it would a client that keeps retrying;
	// the first write into a dead socket may still succeed, so one send
	// proves nothing either way.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for seq := types.SeqNum(1); ; seq++ {
			srv.Send(ClientAddr(42), &wire.Envelope{From: 0, Msg: &types.Response{Replica: 0, Seq: seq}})
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	recvWithin(t, replies, 2*time.Second, "reply to the reconnected client")
}

// muteListener accepts connections and never reads from them.
func muteListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln
}

// Send runs on a replica's event goroutine: a peer that accepts and never
// reads must cost it a bounded stall, not block it for good.
func TestTCPSendToNonReadingPeerReturns(t *testing.T) {
	mute := muteListener(t)
	tp, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", map[int32]string{1: mute.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	// 8 MiB is beyond what loopback socket buffers hold, so some Send finds
	// them full; that one may take the write timeout, none may take longer.
	big := &wire.Envelope{From: 0, Msg: &types.ClientRequest{Client: 1, Op: make([]byte, 1<<20)}}
	for i := 0; i < 8; i++ {
		done := make(chan struct{})
		go func() {
			tp.Send(ReplicaAddr(1), big)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(3 * writeTimeout):
			t.Fatalf("Send %d to a peer that never reads is still blocked", i)
		}
	}
}

// TestTCPWriteTimeoutUnderHalfViewChange: a peer that stops reading stalls a
// replica's event loop for up to writeTimeout per frame, which must stay at
// most half the default view-change timeout, or a healthy primary stuck on
// one such peer could be voted out by the rest.
func TestTCPWriteTimeoutUnderHalfViewChange(t *testing.T) {
	if vc := engine.DefaultConfig(4, 1).ViewChangeTimeout; writeTimeout > vc/2 {
		t.Fatalf("writeTimeout %v is over half the default view-change timeout %v", writeTimeout, vc)
	}
}

// Before its Hello a connection may make the reader allocate a Hello's worth
// and no more: a header announcing a large frame gets the connection closed,
// not a buffer of that size and a wait for bytes to fill it.
func TestTCPOversizedPreHandshakeFrameHangsUp(t *testing.T) {
	srv, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A valid header for a 1 MiB body, and then nothing.
	frame, err := wire.Encode(&wire.Envelope{Msg: &types.ClientRequest{Op: make([]byte, 1<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame[:8]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("replica kept the connection open waiting for the body (read err = %v)", err)
	}
}

// Two endpoints that dial each other at the same moment end up with two
// connections; both must stay usable, or each side closes the one the other
// is sending on and the first messages are lost.
func TestTCPCrossedDialsLoseNothing(t *testing.T) {
	for round := 0; round < 20; round++ {
		la, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lb, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		book := map[int32]string{0: la.Addr().String(), 1: lb.Addr().String()}
		la.Close()
		lb.Close()
		a, err := NewTCP(ReplicaAddr(0), book[0], book)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCP(ReplicaAddr(1), book[1], book)
		if err != nil {
			t.Fatal(err)
		}
		atA := make(chan *wire.Envelope, 8)
		atB := make(chan *wire.Envelope, 8)
		a.SetHandler(func(env *wire.Envelope) { atA <- env })
		b.SetHandler(func(env *wire.Envelope) { atB <- env })
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for seq := types.SeqNum(1); seq <= 3; seq++ {
				a.Send(ReplicaAddr(1), &wire.Envelope{From: 0, Msg: &types.Prepare{Seq: seq}})
			}
		}()
		go func() {
			defer wg.Done()
			for seq := types.SeqNum(1); seq <= 3; seq++ {
				b.Send(ReplicaAddr(0), &wire.Envelope{From: 1, Msg: &types.Prepare{Seq: seq}})
			}
		}()
		wg.Wait()
		for i := 0; i < 3; i++ {
			recvWithin(t, atA, 2*time.Second, "message to a after crossed dials")
			recvWithin(t, atB, 2*time.Second, "message to b after crossed dials")
		}
		a.Close()
		b.Close()
	}
}

// A Send of an envelope already framed, to a peer already connected, is a
// map lookup and a socket write: it allocates nothing. The peer is a plain
// listener that discards what it reads, so that no decode on its side counts.
func TestTCPSendToConnectedPeerAllocatesNothing(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := sink.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		got <- n
	}()
	tp, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", map[int32]string{1: sink.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	env := &wire.Envelope{From: 0, Msg: &types.Commit{View: 1, Seq: 9}}
	tp.Send(ReplicaAddr(1), env) // dials, handshakes and frames env
	if allocs := testing.AllocsPerRun(200, func() { tp.Send(ReplicaAddr(1), env) }); allocs != 0 {
		t.Fatalf("Send to a connected peer allocates %.1f times, want 0", allocs)
	}
	tp.Close()
	if n := <-got; n == 0 {
		t.Fatal("the peer received nothing")
	}
}
