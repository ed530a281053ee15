package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// writeTimeout bounds one frame's socket write. Send runs on the caller's
// goroutine — for a replica, its single event goroutine — so a peer that has
// stopped reading must cost a bounded stall and its connection, not the
// replica. The stall stays under half the default view-change timeout
// (engine.DefaultConfig), so one such peer cannot hold a healthy primary's
// loop long enough for the others to vote it out. Loopback and LAN sockets
// buffer megabytes, so a healthy peer is never this far behind.
const writeTimeout = 250 * time.Millisecond

// readBuffer sizes each connection's bufio.Reader: a frame's header and body
// (and usually several small frames) arrive in one read syscall.
const readBuffer = 16 << 10

// TCPTransport connects endpoints over TCP with length-prefixed wire frames.
// Each node listens on its own address; outbound connections are dialed
// lazily, announced with a Hello handshake, and reused. Failed peers are
// redialed with backoff on the next send.
type TCPTransport struct {
	self   Addr
	listen net.Listener
	peers  map[Addr]string // static address book for replicas

	mu       sync.Mutex
	conns    map[Addr]*peerConn     // the connection Send uses for each peer
	open     map[*peerConn]struct{} // every connection with a running readLoop
	lastDial map[Addr]time.Time
	closed   bool

	handler Handler
	hmu     sync.RWMutex
}

// peerConn is one TCP connection and which side opened it.
type peerConn struct {
	net.Conn
	dialed bool
}

// NewTCP starts a TCP transport for self, listening on bind, with the
// replica address book peers (replica id → host:port). Clients dial in and
// are learned from their Hello.
func NewTCP(self Addr, bind string, peers map[int32]string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	book := make(map[Addr]string, len(peers))
	for id, hostport := range peers {
		book[ReplicaAddr(id)] = hostport
	}
	t := &TCPTransport{
		self:     self,
		listen:   ln,
		peers:    book,
		conns:    make(map[Addr]*peerConn),
		open:     make(map[*peerConn]struct{}),
		lastDial: make(map[Addr]time.Time),
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.listen.Addr().String() }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.hmu.Lock()
	t.handler = h
	t.hmu.Unlock()
}

// acceptLoop admits inbound connections until the listener is closed.
func (t *TCPTransport) acceptLoop() {
	for {
		conn, err := t.listen.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		c := &peerConn{Conn: conn}
		t.mu.Lock()
		ok := t.track(c)
		t.mu.Unlock()
		if ok {
			go t.readLoop(c, nil)
		}
	}
}

// track records c as open so Close can reach it; a closed transport takes no
// new connections. The caller holds t.mu and starts c's readLoop on true.
func (t *TCPTransport) track(c *peerConn) bool {
	if t.closed {
		c.Close()
		return false
	}
	t.open[c] = struct{}{}
	return true
}

// readLoop pumps frames into the handler. For inbound connections the peer
// identity comes from the Hello that must open the stream; for dialed
// connections the caller already knows who it connected to and passes
// `known`. When the loop ends the connection is gone: it stops being the
// route to its peer, so the next Send redials (or, for a client, waits for
// the client to dial back in) instead of writing into a dead socket.
func (t *TCPTransport) readLoop(c *peerConn, known *Addr) {
	var peer Addr
	// A connection that never introduced itself is no one's route, and
	// forget only closes it.
	defer func() { t.forget(peer, c) }()
	r := bufio.NewReaderSize(c, readBuffer)
	if known != nil {
		peer = *known
	} else {
		// Until the peer has said who it is, it may send a Hello and nothing
		// larger.
		hello, err := wire.ReadHello(r)
		if err != nil {
			return
		}
		peer = t.introduce(hello, c)
	}
	for {
		env, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		if hello, ok := env.Msg.(*types.Hello); ok {
			peer = t.introduce(hello, c)
			continue
		}
		// Stamp the authenticated identity; bodies cannot impersonate.
		if peer.IsClient {
			env.IsClient = true
			env.Client = types.ClientID(peer.Client)
		} else {
			env.IsClient = false
			env.From = types.ReplicaID(peer.Replica)
		}
		t.hmu.RLock()
		h := t.handler
		t.hmu.RUnlock()
		if h != nil {
			h(env)
		}
	}
}

// introduce makes c the route to the peer its Hello names. A peer dials only
// when it has no connection, so a Hello on a fresh connection means whatever
// it dialed before is dead to it: a connection it opened earlier is closed
// and replaced — this is how a client that reconnects under the same id
// becomes reachable again. A connection this side dialed is left open: the
// two ends dialed each other at once, the peer may already be writing on
// ours, and both stay readable while each side sends on the one it holds.
func (t *TCPTransport) introduce(hello *types.Hello, c *peerConn) Addr {
	peer := ReplicaAddr(int32(hello.Replica))
	if hello.IsClient {
		peer = ClientAddr(uint64(hello.Client))
	}
	t.mu.Lock()
	old := t.conns[peer]
	if !t.closed {
		t.conns[peer] = c
	}
	t.mu.Unlock()
	if old != nil && old != c && !old.dialed {
		old.Close()
	}
	return peer
}

// forget closes c and, if it is still the route to peer, removes the route.
// It runs when c's readLoop ends and when a write on c fails; twice is
// harmless.
func (t *TCPTransport) forget(peer Addr, c *peerConn) {
	t.mu.Lock()
	if t.conns[peer] == c {
		delete(t.conns, peer)
	}
	delete(t.open, c)
	t.mu.Unlock()
	c.Close()
}

// Send implements Transport. The envelope is encoded once, on its first
// Send, and the same frame is written to every peer it is sent to.
func (t *TCPTransport) Send(to Addr, env *wire.Envelope) {
	frame, err := env.Frame()
	if err != nil {
		return // unencodable: nothing any peer could be sent
	}
	c := t.conn(to)
	if c == nil {
		return
	}
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := c.Write(frame); err != nil {
		t.forget(to, c)
	}
}

// conn returns (dialing if needed) the connection to a peer.
func (t *TCPTransport) conn(to Addr) *peerConn {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c
	}
	hostport, known := t.peers[to]
	if !known || t.closed {
		t.mu.Unlock()
		return nil // clients are reached only over their inbound conns
	}
	if time.Since(t.lastDial[to]) < 200*time.Millisecond {
		t.mu.Unlock()
		return nil // backoff
	}
	t.lastDial[to] = time.Now()
	t.mu.Unlock()

	raw, err := net.DialTimeout("tcp", hostport, time.Second)
	if err != nil {
		return nil
	}
	c := &peerConn{Conn: raw, dialed: true}
	hello := &types.Hello{}
	if t.self.IsClient {
		hello.IsClient = true
		hello.Client = types.ClientID(t.self.Client)
	} else {
		hello.Replica = types.ReplicaID(t.self.Replica)
	}
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteFrame(c, &wire.Envelope{Msg: hello}); err != nil {
		c.Close()
		return nil
	}
	// The peer may have dialed in meanwhile and become the route. Ours stays
	// open and read all the same: the peer has seen its Hello and may send
	// on it.
	t.mu.Lock()
	if !t.track(c) {
		t.mu.Unlock()
		return nil
	}
	route, ok := t.conns[to]
	if !ok {
		t.conns[to] = c
		route = c
	}
	t.mu.Unlock()
	// The goroutine gets a copy: taking &to would put to on the heap on
	// every call, the cached-connection path included.
	peer := to
	go t.readLoop(c, &peer)
	return route
}

// Close implements Transport. It is idempotent.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for c := range t.open {
		c.Close()
	}
	t.conns = make(map[Addr]*peerConn)
	t.mu.Unlock()
	return t.listen.Close()
}
