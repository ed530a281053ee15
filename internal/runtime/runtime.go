// Package runtime hosts protocol replicas on real goroutines, wall-clock
// timers and pluggable transports (in-process hub or TCP), with real Ed25519
// signatures and HMAC attestations. The examples and the cmd/replica and
// cmd/client binaries run on it; the discrete-event simulator remains the
// measurement substrate.
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
	"flexitrust/internal/kvstore"
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

// Node is a running replica.
type Node struct {
	cfg    NodeConfig
	proto  engine.Protocol
	tc     trusted.Component
	tcView trusted.Component // tc behind the group's counter namespace
	store  *kvstore.Store
	suite  *crypto.Suite
	start  time.Time

	// Read-lease fast path (nil unless Engine.ReadLease): this node's lease
	// tracker and the watermark-consistent read view LeaseRead messages are
	// answered from — on the transport delivery goroutine, never entering
	// the event queue.
	lease      *engine.LeaseTracker
	readView   *kvstore.ReadView
	leaseReads *obs.Counter // obs.MLeaseReads, resolved once
	// parked holds leased reads whose fence is ahead of the read view (the
	// client saw the commit from f+1 backups before this node executed it).
	// Execute answers them as soon as the view gets there; see parkRead.
	parkMu sync.Mutex
	parked []*types.LeaseRead

	events   chan func()
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// pool verifies attestations off the event goroutine.
	pool *crypto.VerifyPool

	timerMu  sync.Mutex
	timerGen map[types.TimerID]uint64
	timers   map[types.TimerID]*time.Timer

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
		store:    kvstore.New(cfg.Records),
		suite:    crypto.NewSuite(cfg.Keyring, cfg.ID),
		start:    time.Now(),
		events:   make(chan func(), 65536),
		stop:     make(chan struct{}),
		timerGen: make(map[types.TimerID]uint64),
		timers:   make(map[types.TimerID]*time.Timer),

		replySlot: make(map[types.ClientID]int),
	}
	n.tc = trusted.New(trusted.Config{
		Host:     cfg.ID,
		Profile:  cfg.TrustedProfile,
		KeepLog:  cfg.KeepLog,
		Attestor: cfg.Authority.For(cfg.ID),
	})
	// Protocol code sees instance-local counter ids; the namespaced view
	// isolates them inside the component (sharded deployments co-hosting
	// several protocol instances per process). The observability wrapper,
	// when enabled, sits between the two: it sees wire identifiers, so
	// audit records attribute each attested access to its namespace.
	n.tcView = trusted.Namespaced(cfg.Engine.Observer.InstrumentTC(n.tc, "replica"),
		cfg.Engine.TrustedNamespace)
	if cfg.Engine.ReadLease {
		// Each node gets its own tracker; cfg.Engine is this node's copy, so
		// the protocol (and its embedded Base) sees the same instance.
		n.lease = &engine.LeaseTracker{}
		n.readView = kvstore.NewReadView()
		n.leaseReads = cfg.Engine.Observer.Metrics().Counter(obs.MLeaseReads)
		cfg.Engine.Lease = n.lease
		n.cfg.Engine.Lease = n.lease
	}
	n.proto = cfg.NewProtocol(cfg.Engine)
	n.pool = crypto.NewVerifyPool(2, 0, n.enqueue)
	cfg.Transport.SetHandler(n.onEnvelope)
	n.wg.Add(1)
	go n.loop()
	n.enqueue(func() { n.proto.Init(n) })
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
		case fn := <-n.events:
			fn()
		case <-n.stop:
			return
		}
	}
}

// enqueue schedules a protocol event; drops after shutdown.
func (n *Node) enqueue(fn func()) {
	select {
	case n.events <- fn:
	case <-n.stop:
	}
}

// onEnvelope routes an inbound envelope into the protocol.
func (n *Node) onEnvelope(env *wire.Envelope) {
	if lr, ok := env.Msg.(*types.LeaseRead); ok {
		// The leased fast path: answered right here on the transport
		// delivery goroutine from the lease tracker and the read view —
		// never queued behind consensus events. That is the entire point.
		n.serveLeaseRead(lr)
		return
	}
	n.enqueue(func() {
		switch msg := env.Msg.(type) {
		case *types.ClientRequest:
			n.proto.OnRequest(msg)
		case *types.RequestBatch:
			for _, r := range msg.Requests {
				n.proto.OnRequest(r)
			}
		default:
			if env.IsClient {
				n.proto.OnMessage(-1, env.Msg)
			} else {
				n.proto.OnMessage(env.From, env.Msg)
			}
		}
	})
}

// leaseReply is a lease-read answer and the envelope it travels in, laid out
// together: one allocation per served read.
type leaseReply struct {
	env wire.Envelope
	msg types.LeaseReadReply
}

// maxParkedReads bounds how many behind-the-fence reads a node holds. Past it
// the oldest — by then most likely abandoned by its client — is refused to
// make room, so reads that can never be satisfied do not wedge the rest.
const maxParkedReads = 1024

// serveLeaseRead answers a single-key read locally under the read lease, on
// the transport delivery goroutine. A read whose fence is ahead of the read
// view — the client saw a commit from f+1 backups that this node has yet to
// execute — is not answered yet: whether a lease is live and what the key
// holds are both questions about a prefix this node has not finished, so it
// parks (an append; the delivery goroutine never blocks) and Execute answers
// it as soon as the view gets there.
func (n *Node) serveLeaseRead(lr *types.LeaseRead) {
	if n.lease != nil && n.readView.Seq() < lr.Fence {
		parked, evicted := n.parkRead(lr)
		if evicted != nil {
			n.replyLeaseRead(evicted, false)
		}
		if parked {
			return
		}
	}
	n.replyLeaseRead(lr, true)
}

// replyLeaseRead sends lr's answer: from the lease tracker and the read view
// as they are right now when answer is set, a flat refusal otherwise. The
// tracker and the view are concurrency-safe, so this runs on the transport
// delivery goroutine and, for parked reads, on the event goroutine alike. Any
// reply other than OK/NotFound sends the client down the consensus fallback;
// a stopped node sends none.
func (n *Node) replyLeaseRead(lr *types.LeaseRead, answer bool) {
	if n.Stopped() {
		return
	}
	out := &leaseReply{msg: types.LeaseReadReply{
		Replica: n.cfg.ID, ReadNo: lr.ReadNo, Key: lr.Key, Status: types.LeaseReadRefused}}
	reply := &out.msg
	if view, epoch, _, att, serving := n.lease.Serving(n.Now()); !serving {
		reply.Status = types.LeaseReadNoLease
	} else if answer {
		reply.View, reply.Epoch, reply.Attest = view, epoch, att
		val, seq, st := n.readView.Lookup(lr.Key, lr.Fence)
		reply.Watermark = seq
		switch st {
		case kvstore.ReadOK:
			reply.Status = types.LeaseReadOK
			reply.Value = val
			n.leaseReads.Inc()
		case kvstore.ReadNotFound:
			reply.Status = types.LeaseReadNotFound
			n.leaseReads.Inc()
		}
	}
	out.env.From, out.env.Msg = n.cfg.ID, reply
	n.cfg.Transport.Send(transport.ClientAddr(uint64(lr.Client)), &out.env)
}

// parkRead holds lr until the read view reaches its fence. parked is false —
// the caller answers now — when the view got there between the caller's check
// and this call: that re-check and Execute's drain both run under parkMu, and
// Execute publishes the view before it drains, so a parked read is always seen
// by the execution that satisfies it. evicted is the read that lost its place
// to lr when parking was full; the caller refuses it.
func (n *Node) parkRead(lr *types.LeaseRead) (parked bool, evicted *types.LeaseRead) {
	n.parkMu.Lock()
	defer n.parkMu.Unlock()
	if n.readView.Seq() >= lr.Fence {
		return false, nil
	}
	if len(n.parked) >= maxParkedReads {
		evicted = n.parked[0]
		n.parked = n.parked[:copy(n.parked, n.parked[1:])]
	}
	n.parked = append(n.parked, lr)
	return true, evicted
}

// serveParked answers the parked reads the view at seq now covers. Each goes
// through replyLeaseRead, so it is still subject to the tracker: a lease
// revoked or expired while a read waited answers NoLease, never a value.
// Called from Execute right after SyncView.
func (n *Node) serveParked(seq types.SeqNum) {
	n.parkMu.Lock()
	var due []*types.LeaseRead
	keep := n.parked[:0]
	for _, lr := range n.parked {
		if lr.Fence <= seq {
			due = append(due, lr)
		} else {
			keep = append(keep, lr)
		}
	}
	clear(n.parked[len(keep):])
	n.parked = keep
	n.parkMu.Unlock()
	for _, lr := range due {
		n.replyLeaseRead(lr, true)
	}
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

// Store exposes the state machine. The store is owned by the node's event
// goroutine; while the node runs, read it through DigestSnapshot (or other
// enqueued work) rather than directly.
func (n *Node) Store() *kvstore.Store { return n.store }

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
	case n.events <- func() { ch <- snap{n.store.StateDigest(), n.store.Applied()} }:
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
	return n.store.StateDigest(), n.store.Applied()
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
	sr, reports := n.proto.(engine.StatusReporter)
	if !reports {
		return engine.Status{}, false
	}
	ch := make(chan engine.Status, 1)
	select {
	case n.events <- func() { ch <- sr.Status() }:
		select {
		case st := <-ch:
			return st, true
		case <-n.stop:
		}
	case <-n.stop:
	}
	return engine.Status{}, false
}

// TrustedComponent exposes the node's trusted component.
func (n *Node) TrustedComponent() trusted.Component { return n.tc }

// --- engine.Env ---

// ID implements engine.Env.
func (n *Node) ID() types.ReplicaID { return n.cfg.ID }

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
				n.proto.OnTimer(id)
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

// Trusted implements engine.Env.
func (n *Node) Trusted() trusted.Component {
	if n.cfg.EmulateTCLatency {
		return sleepingTC{inner: n.tcView}
	}
	return n.tcView
}

// VerifyAttestation implements engine.Env. Attestations minted through a
// namespaced view are remapped to the form their proof binds before checking.
func (n *Node) VerifyAttestation(a *types.Attestation) bool {
	if a == nil {
		return false
	}
	key := crypto.AttestationMemoKey(a)
	if n.pool.Memo().Seen(key) {
		n.metric(obs.MSigVerifyCacheHits)
		return true
	}
	n.metric(obs.MSigVerifies)
	ok := n.cfg.Authority.Verify(trusted.MapAttestation(a, n.cfg.Engine.TrustedNamespace))
	if ok {
		n.pool.Memo().Record(key)
	}
	return ok
}

// VerifyAttestationAsync implements engine.Env: the check runs on the
// verify pool's workers and done(ok) is enqueued back onto the event
// goroutine; memo hits complete synchronously.
func (n *Node) VerifyAttestationAsync(a *types.Attestation, done func(ok bool)) {
	if a == nil {
		done(false)
		return
	}
	key := crypto.AttestationMemoKey(a)
	if n.pool.Memo().Seen(key) {
		n.metric(obs.MSigVerifyCacheHits)
		done(true)
		return
	}
	n.metric(obs.MSigVerifies)
	n.cfg.Engine.Observer.Metrics().Gauge(obs.MVerifyPoolDepth).Set(n.pool.Depth() + 1)
	n.pool.Submit(key, func() bool {
		return n.cfg.Authority.Verify(trusted.MapAttestation(a, n.cfg.Engine.TrustedNamespace))
	}, func(ok bool) {
		n.cfg.Engine.Observer.Metrics().Gauge(obs.MVerifyPoolDepth).Set(n.pool.Depth())
		done(ok)
	})
}

// metric bumps a counter on the configured observer (nil-safe).
func (n *Node) metric(name string) {
	n.cfg.Engine.Observer.Metrics().Counter(name).Inc()
}

// Crypto implements engine.Env.
func (n *Node) Crypto() crypto.Provider { return n.suite }

// Execute implements engine.Env.
func (n *Node) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	n.cfg.Engine.Observer.Metrics().Histogram(obs.MExecBatch).Observe(int64(len(b.Requests)))
	results := n.store.ApplyBatch(b)
	if n.lease != nil {
		n.lease.NoteExec(seq)
		n.scanLeaseGrants(b, results)
		// A committed range freeze (or revoke op) deactivates the store's
		// lease flag deterministically on every replica; the primary's
		// clock-bound tracker must stop serving the same instant that batch
		// executes, not at natural expiry.
		if _, storeActive := n.store.LeaseEpoch(); !storeActive {
			if _, wasActive := n.lease.Epoch(); wasActive {
				n.metric(obs.MLeaseRevocations)
			}
			n.lease.Revoke()
		}
		n.store.SyncView(n.readView, seq)
		n.serveParked(seq)
	}
	return results
}

// scanLeaseGrants installs the lease binding for every OpLeaseGrant the
// batch committed. Runs on the event goroutine inside Execute, so reading
// the protocol's status here is as safe as any handler. Only the view's
// primary arms its tracker — it is the one node allowed to serve — and it
// anchors the grant to the group's trusted counter with one attested access.
func (n *Node) scanLeaseGrants(b *types.Batch, results []types.Result) {
	for i, r := range b.Requests {
		if len(r.Op) == 0 || kvstore.OpCode(r.Op[0]) != kvstore.OpLeaseGrant || i >= len(results) {
			continue
		}
		op, err := kvstore.DecodeOp(r.Op)
		if err != nil {
			continue
		}
		dur, ok := kvstore.LeaseGrantDuration(op)
		if !ok || dur <= 0 {
			continue
		}
		epoch, ok := kvstore.DecodeLeaseGrant(results[i].Value)
		if !ok {
			continue
		}
		sr, reports := n.proto.(engine.StatusReporter)
		if !reports {
			continue
		}
		st := sr.Status()
		if st.Primary != n.cfg.ID || st.InViewChange {
			continue
		}
		var att *types.Attestation
		if a, err := n.Trusted().AppendF(engine.LeaseCounterID, engine.LeaseGrantDigest(
			n.cfg.Engine.TrustedNamespace, st.View, epoch, dur)); err == nil {
			att = a
		}
		expiry := n.Now() + dur - n.cfg.Engine.LeaseSafetyMargin
		n.lease.Grant(st.View, epoch, expiry, att)
	}
}

// Observe returns the node's observability layer (nil when disabled) —
// the status/obs endpoint a supervisor reads alongside Status.
func (n *Node) Observe() *obs.Observer { return n.cfg.Engine.Observer }

// LeaseState reports the node's lease-tracker position (last granted epoch
// and whether it is still active) — white-box surface for revocation tests.
// Only a primary that executed a grant ever shows active; the tracker is
// internally locked, so this is safe off the event goroutine (the store's
// replicated lease state is not).
func (n *Node) LeaseState() (epoch uint64, active bool) { return n.lease.Epoch() }

// StateDigest implements engine.Env.
func (n *Node) StateDigest() types.Digest { return n.store.StateDigest() }

// SnapshotState implements engine.Env.
func (n *Node) SnapshotState() any { return n.store.Snapshot() }

// RestoreState implements engine.Env. A rollback may rewind the committed
// lease state, so local serving stops until a fresh grant commits; the read
// view resyncs wholesale on the next executed batch.
func (n *Node) RestoreState(s any) {
	n.store.Restore(s.(*kvstore.Snapshot))
	n.lease.Revoke()
}

// Defer implements engine.Env.
func (n *Node) Defer(fn func()) { n.enqueue(fn) }

// Logf implements engine.Env.
func (n *Node) Logf(format string, args ...any) {
	if n.cfg.Verbose {
		log.Printf("[r%d] "+format, append([]any{n.cfg.ID}, args...)...)
	}
}

// sleepingTC emulates hardware access latency by sleeping the profile's
// access cost around each operation (hardware-faithful demos).
type sleepingTC struct {
	inner trusted.Component
}

// nap sleeps one access.
func (s sleepingTC) nap() { time.Sleep(s.inner.Profile().AccessCost) }

func (s sleepingTC) Host() types.ReplicaID    { return s.inner.Host() }
func (s sleepingTC) Profile() trusted.Profile { return s.inner.Profile() }
func (s sleepingTC) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	s.nap()
	return s.inner.AppendF(q, x)
}
func (s sleepingTC) Append(q uint32, k uint64, x types.Digest) (*types.Attestation, error) {
	s.nap()
	return s.inner.Append(q, k, x)
}
func (s sleepingTC) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	s.nap()
	return s.inner.Lookup(q, k)
}
func (s sleepingTC) Create(q uint32, k uint64) (*types.Attestation, error) {
	s.nap()
	return s.inner.Create(q, k)
}
func (s sleepingTC) Current(q uint32) (uint32, uint64, error) { return s.inner.Current(q) }
func (s sleepingTC) Accesses() uint64                         { return s.inner.Accesses() }
func (s sleepingTC) LogSize() int                             { return s.inner.LogSize() }
func (s sleepingTC) Snapshot() *trusted.State                 { return s.inner.Snapshot() }
func (s sleepingTC) Restore(st *trusted.State) error          { return s.inner.Restore(st) }
