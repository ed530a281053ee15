package runtime

import (
	"net"
	"reflect"
	"sync"
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

// recordingTransport keeps what its endpoint sends, and when; the test plays
// the peers by calling handler.
type recordingTransport struct {
	mu      sync.Mutex
	to      []transport.Addr
	envs    []*wire.Envelope
	at      []time.Time
	handler transport.Handler
}

func (r *recordingTransport) Send(to transport.Addr, env *wire.Envelope) {
	r.mu.Lock()
	r.to = append(r.to, to)
	r.envs = append(r.envs, env)
	r.at = append(r.at, time.Now())
	r.mu.Unlock()
}

// take returns the sends recorded so far and forgets them.
func (r *recordingTransport) take() ([]transport.Addr, []*wire.Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	to, envs := r.to, r.envs
	r.to, r.envs, r.at = nil, nil, nil
	return to, envs
}

// sent returns how many sends are recorded.
func (r *recordingTransport) sent() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.to)
}

func (r *recordingTransport) SetHandler(h transport.Handler) { r.handler = h }
func (r *recordingTransport) Close() error                   { return nil }

// loneNode starts replica 0 of a 4-replica Flexi-BFT group on tp.
func loneNode(t *testing.T, tp transport.Transport) *Node {
	t.Helper()
	const n, f = 4, 1
	ring, err := crypto.NewKeyring(5, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(NodeConfig{
		ID:             0,
		Engine:         engine.DefaultConfig(n, f),
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Transport:      tp,
		Keyring:        ring,
		Authority:      trusted.NewHMACAuthority(6, n),
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        100,
	})
	t.Cleanup(node.Stop)
	return node
}

// onEventLoop runs fn on the node's event goroutine and waits for it.
func onEventLoop(n *Node, fn func()) {
	done := make(chan struct{})
	n.Defer(func() { fn(); close(done) })
	<-done
}

func TestRespondSendsEachClientOnlyItsResults(t *testing.T) {
	rec := &recordingTransport{}
	node := loneNode(t, rec)
	whole := &types.Response{Replica: 0, View: 2, Seq: 9, Digest: types.Digest{1}, Speculative: true,
		Results: []types.Result{
			{Client: 5, ReqNo: 1, Value: []byte("a")},
			{Client: 6, ReqNo: 1, Value: []byte("b")},
			{Client: 5, ReqNo: 2, Value: []byte("c")},
			{Client: 7, ReqNo: 4, Value: []byte("d")},
		}}
	before := *whole
	// Twice: the second call runs on the first call's scratch.
	for round := 0; round < 2; round++ {
		var to []transport.Addr
		var envs []*wire.Envelope
		onEventLoop(node, func() {
			rec.take() // whatever the protocol sent on its own
			node.Respond(whole)
			to, envs = rec.take()
		})

		want := map[types.ClientID][]types.Result{
			5: {whole.Results[0], whole.Results[2]},
			6: {whole.Results[1]},
			7: {whole.Results[3]},
		}
		if len(envs) != len(want) {
			t.Fatalf("round %d: %d sends for %d clients", round, len(envs), len(want))
		}
		for i, env := range envs {
			if !to[i].IsClient || env.From != 0 || env.IsClient {
				t.Fatalf("send %d addressed %v from %+v", i, to[i], env)
			}
			resp := env.Msg.(*types.Response)
			client := types.ClientID(to[i].Client)
			if !reflect.DeepEqual(resp.Results, want[client]) {
				t.Fatalf("client %d was sent results %+v, want %+v", client, resp.Results, want[client])
			}
			delete(want, client)
			header := *resp
			header.Results = whole.Results
			if !reflect.DeepEqual(&header, whole) {
				t.Fatalf("client %d's response header %+v differs from the batch's %+v", client, resp, whole)
			}
		}
		if !reflect.DeepEqual(*whole, before) {
			t.Fatal("Respond changed the response it was given")
		}
	}
}

func TestBroadcastSendsEveryPeerTheSameEnvelope(t *testing.T) {
	rec := &recordingTransport{}
	node := loneNode(t, rec)
	msg := &types.Prepare{View: 1, Seq: 3}
	var to []transport.Addr
	var envs []*wire.Envelope
	onEventLoop(node, func() {
		rec.take() // whatever the protocol sent on its own
		node.Broadcast(msg)
		to, envs = rec.take()
	})
	if len(envs) != 3 {
		t.Fatalf("%d sends, want one per peer", len(envs))
	}
	for i, env := range envs {
		if env != envs[0] || env.Msg != types.Message(msg) || env.From != 0 {
			t.Fatalf("send %d carries its own envelope %+v", i, env)
		}
		if want := transport.ReplicaAddr(int32(i + 1)); to[i] != want {
			t.Fatalf("send %d went to %v, want %v", i, to[i], want)
		}
	}
}

// A peer that accepts the connection and never reads fills its socket
// buffers; the node's event goroutine, which does the sending, must come back
// to serve Status all the same.
func TestNodeStatusAnswersWhileAPeerNeverReads(t *testing.T) {
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := mute.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	tp, err := transport.NewTCP(transport.ReplicaAddr(0), "127.0.0.1:0", map[int32]string{1: mute.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	node := loneNode(t, tp)

	// 8 MiB toward the mute peer, from the event goroutine like any protocol
	// send: more than loopback buffers hold.
	big := &types.ClientRequest{Client: 1, Op: make([]byte, 1<<20)}
	node.Defer(func() {
		for i := 0; i < 8; i++ {
			node.Send(1, big)
		}
	})
	answered := make(chan bool, 1)
	go func() {
		_, ok := node.Status()
		answered <- ok
	}()
	select {
	case ok := <-answered:
		if !ok {
			t.Fatal("Status reported the node stopped")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Status never answered: the event goroutine is stuck in a socket write")
	}
}
