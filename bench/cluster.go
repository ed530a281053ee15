package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/harness"
	"flexitrust/internal/obs"
	"flexitrust/internal/runtime"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// cluster is one f=1 consensus group assembled from the shipped parts the
// way cmd/replica assembles them — runtime.NewNode over a transport endpoint,
// one shared keyring and attestation authority — on either fabric. Building
// from NewNode rather than runtime.NewCluster is what lets the traced run put
// a decorator between every node and its endpoint; the untraced run hands
// the nodes the bare endpoints.
type cluster struct {
	spec     harness.Spec
	n, f     int
	tcp      bool
	nodes    []*runtime.Node
	ring     *crypto.Keyring
	hub      *transport.Hub
	book     map[int32]string
	closers  []transport.Transport // every endpoint opened, replicas and clients
	observer *obs.Observer         // traced runs only
	tr       *tracer               // nil when untraced
}

// clusterConfig selects the fabric and the instrumentation.
type clusterConfig struct {
	protocol string
	tcp      bool
	seed     int64
	clients  []types.ClientID
	tr       *tracer
}

const bindAttempts = 8

// newCluster boots the replicas. Over TCP the replica ports are reserved
// first (see reservePorts) and the whole bind is retried if any port was
// taken in between.
func newCluster(cfg clusterConfig) (*cluster, error) {
	spec, err := harness.ByName(cfg.protocol)
	if err != nil {
		return nil, err
	}
	const f = 1
	n := spec.N(f)
	ring, err := crypto.NewKeyring(cfg.seed, n, cfg.clients)
	if err != nil {
		return nil, fmt.Errorf("keyring: %w", err)
	}
	c := &cluster{spec: spec, n: n, f: f, tcp: cfg.tcp, ring: ring, tr: cfg.tr}
	endpoints, err := c.openReplicaEndpoints()
	if err != nil {
		return nil, err
	}
	ecfg := engine.DefaultConfig(n, f)
	ecfg.Parallel = spec.Parallel
	if cfg.tr != nil {
		// The registry counters and the audit stream the per-layer metrics
		// read; span sampling inside the replicas stays off (the
		// replicated-store path opens none).
		c.observer = obs.New(obs.Config{SampleRate: -1})
		ecfg.Observer = c.observer
	}
	auth := trusted.NewHMACAuthority(cfg.seed+1, n)
	for i, tp := range endpoints {
		c.nodes = append(c.nodes, runtime.NewNode(runtime.NodeConfig{
			ID:             types.ReplicaID(i),
			Engine:         ecfg,
			NewProtocol:    spec.New,
			Transport:      c.wrap(transport.ReplicaAddr(int32(i)), tp),
			Keyring:        ring,
			Authority:      auth,
			TrustedProfile: trusted.ProfileSGXEnclave,
			KeepLog:        spec.KeepLog,
		}))
	}
	return c, nil
}

// wrap interposes the tracer's decorator on an endpoint (traced runs only).
func (c *cluster) wrap(self transport.Addr, tp transport.Transport) transport.Transport {
	if c.tr == nil {
		return tp
	}
	return &tracedTransport{inner: tp, self: self, tr: c.tr}
}

func (c *cluster) openReplicaEndpoints() ([]transport.Transport, error) {
	if !c.tcp {
		c.hub = transport.NewHub()
		eps := make([]transport.Transport, c.n)
		for i := range eps {
			eps[i] = c.hub.Attach(transport.ReplicaAddr(int32(i)), 0)
		}
		c.closers = append(c.closers, eps...)
		return eps, nil
	}
	var lastErr error
	for attempt := 0; attempt < bindAttempts; attempt++ {
		book, err := reservePorts(c.n)
		if err != nil {
			return nil, err
		}
		eps, err := bindReplicas(book)
		if err == nil {
			c.book = book
			c.closers = append(c.closers, eps...)
			return eps, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("binding %d replica ports failed %d times: %w", c.n, bindAttempts, lastErr)
}

// reservePorts picks n distinct free loopback ports by holding n listeners at
// once, then releases them. transport.NewTCP needs the complete address book
// before it binds, so the ports have to be chosen first; another process can
// take one between release and rebind, which is why the caller retries.
func reservePorts(n int) (map[int32]string, error) {
	book := make(map[int32]string, n)
	held := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		held = append(held, ln)
		book[int32(i)] = ln.Addr().String()
	}
	return book, nil
}

// bindReplicas opens every replica's TCP transport on its reserved address;
// on any failure the ones already bound are closed again.
func bindReplicas(book map[int32]string) ([]transport.Transport, error) {
	eps := make([]transport.Transport, len(book))
	for i := range eps {
		tp, err := transport.NewTCP(transport.ReplicaAddr(int32(i)), book[int32(i)], book)
		if err != nil {
			for _, open := range eps[:i] {
				open.Close()
			}
			return nil, err
		}
		eps[i] = tp
	}
	return eps, nil
}

// newClient attaches one client library. Over TCP the client dials every
// replica now: replicas can only answer a client over a connection the
// client opened, so a client that had dialed just the primary would collect
// one reply, miss its f+1 quorum and sit out a full ClientRetry on its first
// request.
func (c *cluster) newClient(id types.ClientID) (*runtime.Client, error) {
	self := transport.ClientAddr(uint64(id))
	var tp transport.Transport
	if c.tcp {
		t, err := transport.NewTCP(self, "127.0.0.1:0", c.book)
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", id, err)
		}
		for r := 0; r < c.n; r++ {
			t.Send(transport.ReplicaAddr(int32(r)),
				&wire.Envelope{Msg: &types.Hello{IsClient: true, Client: id}})
		}
		tp = t
	} else {
		tp = c.hub.Attach(self, 0)
	}
	c.closers = append(c.closers, tp)
	return runtime.NewClient(runtime.ClientConfig{
		ID: id, N: c.n, F: c.f,
		Transport: c.wrap(self, tp),
		Keyring:   c.ring,
		Replies:   c.spec.Policy(c.n, c.f).Fast,
	}), nil
}

// stop halts every node and closes every endpoint opened for this cluster.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, tp := range c.closers {
		tp.Close()
	}
}

// live returns the nodes that have not been stopped.
func (c *cluster) live() []*runtime.Node {
	var out []*runtime.Node
	for _, n := range c.nodes {
		if !n.Stopped() {
			out = append(out, n)
		}
	}
	return out
}

// quiesce waits for the live replicas to stop moving and checks what they
// agree on. A quorum (n-f) of them must report one state digest at one
// applied-operation count, and no two replicas at the same count may differ
// in digest — that would be divergence. A replica behind the quorum is
// counted as lagging, not as a disagreement: once the others' checkpoint
// votes make a checkpoint stable past what a slow replica has executed, it
// discards the proposals it still needed and, with no state transfer
// (ROADMAP 4c), never executes again.
func (c *cluster) quiesce(deadline time.Duration) *agreement {
	type pos struct {
		d types.Digest
		a uint64
	}
	var prev []pos
	for start := time.Now(); ; time.Sleep(25 * time.Millisecond) {
		var seen []pos
		var top uint64
		for _, n := range c.live() {
			d, a := n.DigestSnapshot()
			seen = append(seen, pos{d, a})
			if a > top {
				top = a
			}
		}
		atTop := 0
		for i, p := range seen {
			if p.a == top {
				atTop++
			}
			for _, q := range seen[:i] {
				if p.a == q.a && p.d != q.d {
					return &agreement{err: fmt.Errorf("replicas diverged: two state digests (%x, %x) at %d applied operations", p.d[:4], q.d[:4], p.a)}
				}
			}
		}
		settled := len(prev) == len(seen)
		for i := range seen {
			settled = settled && prev[i] == seen[i]
		}
		if settled && atTop >= c.n-c.f {
			agreed := &agreement{lagging: len(seen) - atTop}
			for _, p := range seen {
				if p.a < top {
					agreed.note = fmt.Sprintf("a replica stopped executing at %.0f%% of the quorum's position", 100*float64(p.a)/float64(top))
				}
			}
			return agreed
		}
		prev = seen
		if time.Since(start) > deadline {
			var b strings.Builder
			for _, p := range seen {
				fmt.Fprintf(&b, " %x/%d", p.d[:4], p.a)
			}
			return &agreement{err: fmt.Errorf("no quorum of live replicas agrees after %v (digest/applied:%s)", deadline, b.String())}
		}
	}
}

// status returns the furthest consensus position among live replicas.
func (c *cluster) status() (st engine.Status) {
	for _, n := range c.live() {
		if s, ok := n.Status(); ok {
			if s.LastExecuted > st.LastExecuted {
				st.LastExecuted = s.LastExecuted
			}
			if s.ViewChanges > st.ViewChanges {
				st.ViewChanges, st.View, st.Primary = s.ViewChanges, s.View, s.Primary
			}
		}
	}
	return st
}

// trustedAccesses sums the replicas' trusted-component access counts.
func (c *cluster) trustedAccesses() (total uint64) {
	for _, n := range c.nodes {
		total += n.TrustedComponent().Accesses()
	}
	return total
}
