// Package runtime hosts protocol replicas on real goroutines, wall-clock
// timers and pluggable transports (in-process hub or TCP), with real Ed25519
// signatures between replicas, client authenticator vectors and HMAC
// attestations. The examples, the cmd/replica and
// cmd/client binaries and the wall-clock benchmark run on it.
//
// Each node serializes all protocol events (messages, timers) onto a single
// event goroutine, preserving the deterministic single-threaded handler
// model the protocols are written against.
package runtime

import (
	"log"
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// NodeConfig assembles one replica.
type NodeConfig struct {
	ID     types.ReplicaID
	Engine engine.Config
	// NewProtocol constructs the consensus protocol.
	NewProtocol func(engine.Config) engine.Protocol
	// Transport is the node's message fabric (hub endpoint or TCP).
	Transport transport.Transport
	// Keyring provides signing keys; Authority verifies attestations.
	Keyring   *crypto.Keyring
	Authority *trusted.HMACAuthority
	// TrustedProfile selects the trusted hardware class; EmulateTCLatency
	// sleeps the profile's access cost for hardware-faithful runs.
	TrustedProfile   trusted.Profile
	KeepLog          bool
	EmulateTCLatency bool
	// Records sizes the key-value store (default 600k).
	Records int
	// Verbose enables protocol logging.
	Verbose bool
	// OnPanic, when set, is called with the recovered value if the node's
	// event goroutine panics, before the panic is re-raised — the hook for
	// flushing a post-mortem flight record while the process still can.
	OnPanic func(any)
}

// Node is a running replica: an engine.Host on an event goroutine, wall-clock
// timers and a transport.
type Node struct {
	*engine.Host
	cfg   NodeConfig
	suite *crypto.Suite
	start time.Time

	events   chan event
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// pool verifies attestations off the event goroutine.
	pool *crypto.VerifyPool

	timerMu  sync.Mutex
	timerGen map[types.TimerID]uint64
	timers   map[types.TimerID]*time.Timer

	// mDrops counts inbound messages dropped because events was full.
	mDrops *obs.Counter

	// Respond's scratch, reused across calls (event goroutine only): each
	// client's slot in the reply slab, and the results per slot.
	replySlot  map[types.ClientID]int
	replyCount []int
}

// NewNode builds and starts a replica node.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Records == 0 {
		cfg.Records = 600_000
	}
	n := &Node{
		cfg:      cfg,
		suite:    crypto.NewSuite(cfg.Keyring, cfg.ID),
		start:    time.Now(),
		events:   make(chan event, 65536),
		stop:     make(chan struct{}),
		timerGen: make(map[types.TimerID]uint64),
		timers:   make(map[types.TimerID]*time.Timer),
		mDrops:   cfg.Engine.Observer.Metrics().Counter(obs.MInboundDrops),

		replySlot: make(map[types.ClientID]int),
	}
	tc := trusted.New(trusted.Config{
		Host:     cfg.ID,
		Profile:  cfg.TrustedProfile,
		KeepLog:  cfg.KeepLog,
		Attestor: cfg.Authority.For(cfg.ID),
	})
	// The observability wrapper, when enabled, sits below the host's
	// namespaced view: it sees wire identifiers, so audit records attribute
	// each attested access to its namespace.
	n.Host = engine.NewHost(engine.HostConfig{
		ID:          cfg.ID,
		Engine:      cfg.Engine,
		NewProtocol: cfg.NewProtocol,
		Records:     cfg.Records,
		TC:          cfg.Engine.Observer.InstrumentTC(tc, "replica"),
		Verify:      cfg.Authority.Verify,
	}, n)
	n.pool = crypto.NewVerifyPool(2, n.Memo(), n.enqueue)
	cfg.Transport.SetHandler(n.onEnvelope)
	n.wg.Add(1)
	go n.loop()
	n.enqueue(func() { n.Protocol().Init(n) })
	return n
}

// loop is the single event goroutine.
func (n *Node) loop() {
	defer n.wg.Done()
	if n.cfg.OnPanic != nil {
		defer func() {
			if r := recover(); r != nil {
				n.cfg.OnPanic(r)
				panic(r)
			}
		}()
	}
	for {
		select {
		case e := <-n.events:
			if e.env != nil {
				n.deliver(e.env)
			} else {
				e.fn()
			}
		case <-n.stop:
			return
		}
	}
}

// event is one entry of the event queue: an inbound envelope to deliver or,
// when env is nil, a function to run. A delivered message, the common case,
// needs no closure.
type event struct {
	fn  func()
	env *wire.Envelope
}

// enqueue schedules a protocol event; drops after shutdown.
func (n *Node) enqueue(fn func()) {
	select {
	case n.events <- event{fn: fn}:
	case <-n.stop:
	}
}

// onEnvelope hands an inbound envelope to the host. It runs on the sender's
// goroutine (hub) or a connection's reader (TCP), so it never blocks: two
// event goroutines each waiting for room in the other's queue would wait for
// ever. A message to a full queue is dropped and counted (consensus tolerates
// loss), one to a stopped node just dropped. A leased read is answered right
// here, never queued behind consensus events: that is the fast path's point.
func (n *Node) onEnvelope(env *wire.Envelope) {
	if _, ok := env.Msg.(*types.LeaseRead); ok {
		n.deliver(env)
		return
	}
	select {
	case n.events <- event{env: env}:
	default:
		if !n.Stopped() {
			n.mDrops.Inc()
		}
	}
}

// deliver hands env's message to the host, from -1 when a client sent it.
func (n *Node) deliver(env *wire.Envelope) {
	from := env.From
	if env.IsClient {
		from = -1
	}
	n.Deliver(from, env.Msg)
}

// leaseReply is a lease-read answer and the envelope it travels in, laid out
// together: one allocation per served read.
type leaseReply struct {
	env wire.Envelope
	msg types.LeaseReadReply
}

// SendLeaseReply implements engine.Substrate. A stopped node sends none.
func (n *Node) SendLeaseReply(c types.ClientID, r types.LeaseReadReply) {
	if n.Stopped() {
		return
	}
	out := &leaseReply{msg: r}
	out.env.From, out.env.Msg = n.cfg.ID, &out.msg
	n.cfg.Transport.Send(transport.ClientAddr(uint64(c)), &out.env)
}

// Stop halts the node (fail-stop; used by crash tests). It is idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.timerMu.Lock()
		for _, t := range n.timers {
			t.Stop()
		}
		n.timerMu.Unlock()
		// Drain in-flight verifications; their completions enqueue after
		// stop and are dropped by enqueue.
		n.pool.Close()
		n.wg.Wait()
	})
}

// DigestSnapshot returns the state machine's digest and applied-operation
// count, read on the node's event goroutine so callers never race with
// batch execution. A stopped node is read directly: its event loop has
// exited, so no writer remains.
func (n *Node) DigestSnapshot() (types.Digest, uint64) {
	type snap struct {
		d types.Digest
		a uint64
	}
	ch := make(chan snap, 1)
	select {
	case n.events <- event{fn: func() { ch <- snap{n.StateDigest(), n.Store().Applied()} }}:
		select {
		case s := <-ch:
			return s.d, s.a
		case <-n.stop:
		}
	case <-n.stop:
	}
	// Stopped before the snapshot ran: wait for the event loop to exit (it
	// may still be draining an execution event), then read directly.
	n.wg.Wait()
	return n.StateDigest(), n.Store().Applied()
}

// Stopped reports whether the node has been fail-stopped.
func (n *Node) Stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// Status reports the protocol's consensus position (view, primary,
// view-change state, execution progress), read on the node's event goroutine
// so it never races with handlers. ok is false when the node is stopped —
// a down replica has no position, which is exactly the signal health
// monitoring wants — or when the protocol does not report status.
func (n *Node) Status() (engine.Status, bool) {
	sr, reports := n.Protocol().(engine.StatusReporter)
	if !reports {
		return engine.Status{}, false
	}
	ch := make(chan engine.Status, 1)
	select {
	case n.events <- event{fn: func() { ch <- sr.Status() }}:
		select {
		case st := <-ch:
			return st, true
		case <-n.stop:
		}
	case <-n.stop:
	}
	return engine.Status{}, false
}

// --- engine.Env ---

// Send implements engine.Env.
func (n *Node) Send(to types.ReplicaID, m types.Message) {
	n.cfg.Transport.Send(transport.ReplicaAddr(int32(to)),
		&wire.Envelope{From: n.cfg.ID, Msg: m})
}

// Broadcast implements engine.Env. Every peer is sent the same envelope: the
// hub shares the pointer, and the TCP transport encodes it once.
func (n *Node) Broadcast(m types.Message) {
	env := &wire.Envelope{From: n.cfg.ID, Msg: m}
	for i := 0; i < n.cfg.Engine.N; i++ {
		if types.ReplicaID(i) == n.cfg.ID {
			continue
		}
		n.cfg.Transport.Send(transport.ReplicaAddr(int32(i)), env)
	}
}

// clientReply is one client's share of a batch response: the envelope and
// the Response it carries, laid out together so that Respond allocates one
// slab of them however many clients the batch covers.
type clientReply struct {
	env  wire.Envelope
	resp types.Response
}

// Respond implements engine.Env: each covered client is sent a Response
// carrying the batch's header and only that client's results — a client has
// no use for the others', and shipping the whole batch to every client in it
// made reply bytes quadratic in the batch size. Runs on the event goroutine,
// which is what makes the scratch index safe to reuse.
func (n *Node) Respond(r *types.Response) {
	// One slot per distinct client, in order of first appearance; counts how
	// many results each slot will hold.
	clear(n.replySlot)
	counts := n.replyCount[:0]
	for i := range r.Results {
		slot, seen := n.replySlot[r.Results[i].Client]
		if !seen {
			slot = len(counts)
			n.replySlot[r.Results[i].Client] = slot
			counts = append(counts, 0)
		}
		counts[slot]++
	}
	n.replyCount = counts

	replies := make([]clientReply, len(counts))
	results := make([]types.Result, len(r.Results))
	for slot := range replies {
		resp := &replies[slot].resp
		*resp = *r
		resp.Results, results = results[:0:counts[slot]], results[counts[slot]:]
	}
	for i := range r.Results {
		resp := &replies[n.replySlot[r.Results[i].Client]].resp
		resp.Results = append(resp.Results, r.Results[i])
	}
	for slot := range replies {
		reply := &replies[slot]
		reply.env.From, reply.env.Msg = n.cfg.ID, &reply.resp
		n.cfg.Transport.Send(transport.ClientAddr(uint64(reply.resp.Results[0].Client)), &reply.env)
	}
}

// SendClient implements engine.Env.
func (n *Node) SendClient(c types.ClientID, m types.Message) {
	n.cfg.Transport.Send(transport.ClientAddr(uint64(c)),
		&wire.Envelope{From: n.cfg.ID, Msg: m})
}

// SetTimer implements engine.Env.
func (n *Node) SetTimer(id types.TimerID, d time.Duration) {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	n.timerGen[id]++
	gen := n.timerGen[id]
	if t, ok := n.timers[id]; ok {
		t.Stop()
	}
	n.timers[id] = time.AfterFunc(d, func() {
		n.enqueue(func() {
			n.timerMu.Lock()
			current := n.timerGen[id] == gen
			n.timerMu.Unlock()
			if current {
				n.Protocol().OnTimer(id)
			}
		})
	})
}

// CancelTimer implements engine.Env.
func (n *Node) CancelTimer(id types.TimerID) {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	n.timerGen[id]++
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
}

// Now implements engine.Env.
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Charge implements engine.Substrate: the runtime meters nothing.
func (n *Node) Charge(engine.Step, int) {}

// TrustedAccess implements engine.Substrate: with EmulateTCLatency, every
// access sleeps the profile's access cost (hardware-faithful demos).
func (n *Node) TrustedAccess(bool) {
	if n.cfg.EmulateTCLatency {
		time.Sleep(n.TrustedComponent().Profile().AccessCost)
	}
}

// VerifyAsync implements engine.Substrate: the check runs on the verify
// pool's workers and done(ok) is enqueued back onto the event goroutine.
func (n *Node) VerifyAsync(key crypto.MemoKey, check func() bool, done func(ok bool)) {
	n.pool.Submit(key, check, done)
}

// Crypto implements engine.Env.
func (n *Node) Crypto() crypto.Provider { return n.suite }

// Observe returns the node's observability layer (nil when disabled) —
// the status/obs endpoint a supervisor reads alongside Status.
func (n *Node) Observe() *obs.Observer { return n.cfg.Engine.Observer }

// Defer implements engine.Env.
func (n *Node) Defer(fn func()) { n.enqueue(fn) }

// Logf implements engine.Env.
func (n *Node) Logf(format string, args ...any) {
	if n.cfg.Verbose {
		log.Printf("[r%d] "+format, append([]any{n.cfg.ID}, args...)...)
	}
}
