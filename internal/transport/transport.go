// Package transport provides the real message fabrics the runtime package
// runs protocols over: an in-process hub for single-binary clusters and
// tests, and a TCP transport with identity handshakes for multi-process
// deployments (cmd/replica, cmd/client).
//
// The hub delivers a message by calling the receiver's handler on the
// sender's goroutine, before Send returns: no queue and no goroutine sits
// between two endpoints. TCP calls it on the goroutine that reads the
// receiving side of the connection. A handler that needs its own goroutine
// (a replica's event loop) queues the envelope itself.
package transport

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"flexitrust/internal/wire"
)

// Addr identifies an endpoint on a transport: a replica or a client.
type Addr struct {
	Replica  int32
	Client   uint64
	IsClient bool
}

// ReplicaAddr returns a replica endpoint address.
func ReplicaAddr(id int32) Addr { return Addr{Replica: id} }

// ClientAddr returns a client endpoint address.
func ClientAddr(id uint64) Addr { return Addr{Client: id, IsClient: true} }

// String renders the address.
func (a Addr) String() string {
	if a.IsClient {
		return fmt.Sprintf("client-%d", a.Client)
	}
	return fmt.Sprintf("replica-%d", a.Replica)
}

// Handler consumes inbound envelopes.
type Handler func(env *wire.Envelope)

// Transport delivers envelopes between endpoints. Implementations must be
// safe for concurrent use.
type Transport interface {
	// Send delivers env to the endpoint at to. Delivery is best-effort:
	// consensus tolerates loss, and callers never block on a dead peer.
	//
	// The receiver's handler may run on the sender's goroutine, inside this
	// call (the hub does exactly that). So a handler must not block, and it
	// must not take a lock that a sender may hold while it sends: a sender
	// releases its own locks before it calls Send.
	Send(to Addr, env *wire.Envelope)
	// SetHandler installs the inbound message callback (before any Send).
	SetHandler(h Handler)
	// Close releases resources.
	Close() error
}

// Hub is an in-process switchboard connecting ChanTransports by address.
// Every Send reads its address table, and only set-up and shutdown write it,
// so the table is copied on write and read without a lock.
type Hub struct {
	mu    sync.Mutex // serialises the copies Attach and detach make
	ports atomic.Pointer[map[Addr]*ChanTransport]
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	h := &Hub{}
	h.ports.Store(&map[Addr]*ChanTransport{})
	return h
}

// Attach creates (and registers) a transport endpoint for addr. It starts no
// goroutine: a Send to the endpoint runs its handler on the sender's
// goroutine. buf is ignored, as the endpoint keeps no inbox.
func (h *Hub) Attach(addr Addr, buf int) *ChanTransport {
	t := &ChanTransport{hub: h, addr: addr}
	h.mu.Lock()
	ports := maps.Clone(*h.ports.Load())
	ports[addr] = t
	h.ports.Store(&ports)
	h.mu.Unlock()
	return t
}

// lookup finds an endpoint.
func (h *Hub) lookup(addr Addr) *ChanTransport {
	return (*h.ports.Load())[addr]
}

// detach removes t, unless another endpoint has taken its address since.
func (h *Hub) detach(t *ChanTransport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lookup(t.addr) != t {
		return
	}
	ports := maps.Clone(*h.ports.Load())
	delete(ports, t.addr)
	h.ports.Store(&ports)
}

// ChanTransport is one endpoint on a Hub. A Send to it calls its handler
// directly, on the sender's goroutine; once it is closed, Sends no longer
// reach it.
type ChanTransport struct {
	hub     *Hub
	addr    Addr
	handler atomic.Pointer[Handler]
}

// Send implements Transport: it runs the peer's handler before it returns.
// A Send to an unknown or closed endpoint, or to one with no handler yet,
// is dropped.
func (t *ChanTransport) Send(to Addr, env *wire.Envelope) {
	peer := t.hub.lookup(to)
	if peer == nil {
		return
	}
	if h := peer.handler.Load(); h != nil {
		(*h)(env)
	}
}

// SetHandler implements Transport.
func (t *ChanTransport) SetHandler(h Handler) { t.handler.Store(&h) }

// Close implements Transport. It is idempotent.
func (t *ChanTransport) Close() error {
	t.hub.detach(t)
	return nil
}
