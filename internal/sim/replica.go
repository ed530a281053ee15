package sim

import (
	"fmt"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// replicaNode hosts one protocol instance inside the simulator and
// implements engine.Env for it. CPU and trusted-component time live on the
// replica's Machine: a handler occupies the machine's earliest-free worker
// from max(arrival, free) for a duration accumulated from the cost model;
// its outbound messages depart at completion. Replicas of other groups
// placed on the same machine draw from the same worker pool and the same
// trusted-component timeline — co-location contention is shared state, not
// per-replica accounting.
type replicaNode struct {
	g     *group
	id    types.ReplicaID
	idx   int
	m     *Machine
	proto engine.Protocol

	tc     trusted.Component // the machine's physical component
	tcView trusted.Component // machine component behind the group's counter namespace
	store  *kvstore.Store

	timerGen map[types.TimerID]uint64

	crashed bool
	// sendFilter, when set, decides whether an outbound message is actually
	// transmitted (byzantine withholding). to == poolIdx targets clients.
	sendFilter func(to int, m types.Message) bool

	// lease / readView are the read-lease fast path state (nil unless
	// Engine.ReadLease); each replica gets its own tracker, injected into its
	// engine config copy so the protocol's Base revokes it on view changes.
	lease    *engine.LeaseTracker
	readView *kvstore.ReadView
	// staleServe is the byzantine knob: the replica keeps answering leased
	// reads after revocation or expiry, from the last binding it ever held
	// and ignoring the client's fence — exactly the stale-serve attack the
	// session-side view/epoch/watermark checks must defeat.
	staleServe bool
	staleView  types.View
	staleEpoch uint64
	staleAtt   *types.Attestation

	// lastArrival enforces per-link FIFO delivery (TCP-like ordering).
	lastArrival []time.Duration

	// Handler-scoped state, valid only while a handler runs.
	inHandler  bool
	curStart   time.Duration
	curCharges time.Duration
	outbox     []simOut

	cryptoProv *simCrypto

	// memo caches verified attestation statements (lazily created; the
	// simulator is single-threaded, so no construction race exists).
	memo *crypto.VerifyMemo
}

// simOut is a buffered outbound message. depart is the in-handler virtual
// instant the message leaves the node: the busy point at which the send was
// issued, so work charged later in the same handler (e.g. execution and
// response fan-out) does not delay earlier protocol messages — matching a
// pipelined implementation.
type simOut struct {
	to     int
	m      types.Message
	depart time.Duration
}

// charge adds virtual CPU time to the running handler.
func (r *replicaNode) charge(d time.Duration) {
	r.curCharges += d
}

// busyPoint is the in-handler virtual instant at which already-charged work
// completes; used to serialize trusted-component access realistically.
func (r *replicaNode) busyPoint() time.Duration { return r.curStart + r.curCharges }

// runHandler wraps a protocol callback with machine-worker scheduling, cost
// accumulation and outbox flushing.
func (r *replicaNode) runHandler(fn func()) {
	if r.crashed {
		return
	}
	// Pick the machine's earliest-free worker.
	workers := r.m.workers
	wi := 0
	for i := 1; i < len(workers); i++ {
		if workers[i] < workers[wi] {
			wi = i
		}
	}
	start := r.g.now()
	if workers[wi] > start {
		start = workers[wi]
	}
	r.inHandler = true
	r.curStart = start
	r.curCharges = 0
	r.outbox = r.outbox[:0]

	fn()

	finish := start + r.curCharges
	workers[wi] = finish
	r.inHandler = false

	for _, out := range r.outbox {
		r.transmit(out.depart, out.to, out.m)
	}
	r.outbox = r.outbox[:0]
}

// transmit schedules delivery of m to group-local node `to`, departing at
// depart, with link latency, injected delays and FIFO ordering applied.
func (r *replicaNode) transmit(depart time.Duration, to int, m types.Message) {
	if r.sendFilter != nil && !r.sendFilter(to, m) {
		return
	}
	lat := r.g.linkLatency(r.idx, to, m)
	if lat < 0 {
		return // dropped by injection rule
	}
	arrival := depart + lat
	if arrival <= r.lastArrival[to] {
		arrival = r.lastArrival[to] + time.Nanosecond
	}
	r.lastArrival[to] = arrival
	r.g.scheduleMessage(arrival, r.idx, to, m)
}

// handleMessage implements node.
func (r *replicaNode) handleMessage(from int, m types.Message) {
	if r.crashed {
		return
	}
	r.runHandler(func() {
		cm := &r.g.cfg.Cost
		if lr, ok := m.(*types.LeaseRead); ok {
			// The leased fast path: answered for the cost of authenticating
			// the request and one lookup — no pipeline dispatch and no batch
			// serialization, matching the runtime, which answers these on
			// the transport goroutine without enqueueing. The reads still
			// occupy the machine's workers, so heavy read load and the
			// consensus pipeline contend for the same CPU.
			r.charge(cm.MACVerify + cm.LeaseReadPerReq)
			r.serveLeaseRead(lr)
			return
		}
		r.charge(cm.BaseHandle + cm.MACVerify)
		switch msg := m.(type) {
		case *types.RequestBatch:
			// Client request ingress: authenticate and digest each request.
			r.charge(time.Duration(len(msg.Requests)) * (cm.ClientVerifyPerReq + cm.HashPerReq))
			for _, req := range msg.Requests {
				r.proto.OnRequest(req)
			}
		case *types.ClientRequest:
			r.charge(cm.ClientVerifyPerReq + cm.HashPerReq)
			r.proto.OnRequest(msg)
		default:
			if from >= 0 && from < len(r.g.replicas) {
				r.proto.OnMessage(types.ReplicaID(from), m)
			} else {
				// Client-originated protocol message (resend, commit cert).
				r.proto.OnMessage(-1, m)
			}
		}
	})
}

// serveLeaseRead answers a single-key read locally under the read lease —
// the simulator twin of the runtime's transport-goroutine fast path. An
// honest replica serves only while its tracker says the lease is live; a
// staleServe byzantine one keeps serving from its last binding with the
// client's fence ignored, which the client-side checks must catch.
func (r *replicaNode) serveLeaseRead(lr *types.LeaseRead) {
	cm := &r.g.cfg.Cost
	reply := &types.LeaseReadReply{Replica: r.id, ReadNo: lr.ReadNo, Key: lr.Key}
	view, epoch, _, att, ok := r.lease.Serving(r.g.now())
	fence := lr.Fence
	if !ok && r.staleServe && r.staleEpoch != 0 {
		view, epoch, att, ok = r.staleView, r.staleEpoch, r.staleAtt, true
		fence = 0
	}
	if !ok || r.readView == nil {
		reply.Status = types.LeaseReadNoLease
	} else {
		reply.View, reply.Epoch, reply.Attest = view, epoch, att
		val, seq, st := r.readView.Lookup(lr.Key, fence)
		reply.Watermark = seq
		switch st {
		case kvstore.ReadOK:
			reply.Status = types.LeaseReadOK
			reply.Value = val
		case kvstore.ReadNotFound:
			reply.Status = types.LeaseReadNotFound
		default:
			reply.Status = types.LeaseReadRefused
		}
	}
	if reply.Status == types.LeaseReadOK || reply.Status == types.LeaseReadNotFound {
		r.metrics().Counter(obs.MLeaseReads).Inc()
	}
	r.charge(cm.MACSign)
	r.outbox = append(r.outbox, simOut{to: r.g.poolIdx(), m: reply, depart: r.busyPoint()})
}

// handleTimer implements node.
func (r *replicaNode) handleTimer(t types.TimerID, gen uint64) {
	if r.crashed || r.timerGen[t] != gen {
		return
	}
	r.runHandler(func() {
		r.charge(r.g.cfg.Cost.BaseHandle)
		r.proto.OnTimer(t)
	})
}

// --- engine.Env implementation ---

// ID implements engine.Env.
func (r *replicaNode) ID() types.ReplicaID { return r.id }

// Send implements engine.Env.
func (r *replicaNode) Send(to types.ReplicaID, m types.Message) {
	r.charge(r.g.cfg.Cost.MACSign + r.g.cfg.Cost.SendOverhead)
	r.outbox = append(r.outbox, simOut{to: int(to), m: m, depart: r.busyPoint()})
}

// Broadcast implements engine.Env.
func (r *replicaNode) Broadcast(m types.Message) {
	cm := &r.g.cfg.Cost
	for j := range r.g.replicas {
		if j == r.idx {
			continue
		}
		r.charge(cm.MACSign + cm.SendOverhead)
		r.outbox = append(r.outbox, simOut{to: j, m: m, depart: r.busyPoint()})
	}
}

// Respond implements engine.Env. One frame reaches the client pool; the
// charge covers a per-client authenticator for every covered client plus
// one send. (ResilientDB-class systems emit client replies from dedicated
// output threads; charging full per-client send overhead on the consensus
// worker would serialize proposal emission behind reply fan-out, which no
// pipelined implementation does.)
func (r *replicaNode) Respond(resp *types.Response) {
	r.charge(time.Duration(len(resp.Results))*r.g.cfg.Cost.MACSign + r.g.cfg.Cost.SendOverhead)
	r.outbox = append(r.outbox, simOut{to: r.g.poolIdx(), m: resp, depart: r.busyPoint()})
}

// SendClient implements engine.Env.
func (r *replicaNode) SendClient(_ types.ClientID, m types.Message) {
	r.charge(r.g.cfg.Cost.MACSign + r.g.cfg.Cost.SendOverhead)
	r.outbox = append(r.outbox, simOut{to: r.g.poolIdx(), m: m, depart: r.busyPoint()})
}

// SetTimer implements engine.Env.
func (r *replicaNode) SetTimer(id types.TimerID, d time.Duration) {
	r.timerGen[id]++
	r.g.scheduleTimer(r.g.now()+d, r.idx, id, r.timerGen[id])
}

// CancelTimer implements engine.Env.
func (r *replicaNode) CancelTimer(id types.TimerID) { r.timerGen[id]++ }

// Now implements engine.Env.
func (r *replicaNode) Now() time.Duration { return r.g.now() }

// Trusted implements engine.Env: the machine's component (behind the
// group's counter namespace) wrapped so every access serializes on the
// machine's TC timeline and charges its latency.
func (r *replicaNode) Trusted() trusted.Component {
	return &chargingTC{node: r, inner: r.tcView}
}

// VerifyAttestation implements engine.Env: a signature verification plus the
// actual (cheap) HMAC check so forged attestations really are rejected.
// Attestations minted through a namespaced view are remapped to the form
// their proof binds before checking; likewise, the proof was minted by the
// *machine* hosting the sending replica, so the logical replica identity is
// remapped to the machine's before the key lookup.
func (r *replicaNode) VerifyAttestation(a *types.Attestation) bool {
	if a == nil {
		r.charge(r.g.cfg.Cost.DSVerify)
		return false
	}
	key := crypto.AttestationMemoKey(a)
	if r.verifyMemo().Seen(key) {
		r.charge(r.g.cfg.Cost.VerifyMemoHit)
		r.metrics().Counter(obs.MSigVerifyCacheHits).Inc()
		return true
	}
	r.charge(r.g.cfg.Cost.DSVerify)
	r.metrics().Counter(obs.MSigVerifies).Inc()
	ok := r.attestValid(a)
	if ok {
		r.verifyMemo().Record(key)
	}
	return ok
}

// VerifyAttestationAsync implements engine.Env. The simulator models the
// runtime's verify pool in virtual time: the real (host-time-cheap) HMAC
// check runs immediately, but the event goroutine is only charged the
// amortized batched-verification share, with completion delivered as its
// own worker event — exactly the shape of a pool handing results back to
// the event loop.
func (r *replicaNode) VerifyAttestationAsync(a *types.Attestation, done func(ok bool)) {
	if a == nil {
		done(r.VerifyAttestation(a))
		return
	}
	key := crypto.AttestationMemoKey(a)
	if r.verifyMemo().Seen(key) {
		r.charge(r.g.cfg.Cost.VerifyMemoHit)
		r.metrics().Counter(obs.MSigVerifyCacheHits).Inc()
		done(true)
		return
	}
	ok := r.attestValid(a)
	if ok {
		r.verifyMemo().Record(key)
	}
	r.metrics().Counter(obs.MSigVerifies).Inc()
	depth := r.metrics().Gauge(obs.MVerifyPoolDepth)
	depth.Add(1)
	r.g.scheduleFunc(r.g.now(), func() {
		r.runHandler(func() {
			depth.Add(-1)
			r.charge(r.g.cfg.Cost.VerifyBatchN)
			done(ok)
		})
	})
}

// attestValid performs the simulator's real attestation check (no cost
// accounting): remap the namespaced view to the form the proof binds, remap
// the logical replica identity to its hosting machine, and check the HMAC,
// so forged attestations really are rejected.
func (r *replicaNode) attestValid(a *types.Attestation) bool {
	m := trusted.MapAttestation(a, r.g.cfg.Engine.TrustedNamespace)
	if a != nil {
		if mi := r.g.machineOf(int(a.Replica)); mi != int(a.Replica) {
			mm := *m
			mm.Replica = types.ReplicaID(mi)
			m = &mm
		}
	}
	return r.g.mc.auth.Verify(m)
}

// verifyMemo returns the replica's verified-statement memo.
func (r *replicaNode) verifyMemo() *crypto.VerifyMemo {
	if r.memo == nil {
		r.memo = crypto.NewVerifyMemo(0)
	}
	return r.memo
}

// metrics returns the (nil-safe) metrics registry of the configured
// observer.
func (r *replicaNode) metrics() *obs.Registry {
	return r.g.cfg.Engine.Observer.Metrics()
}

// Crypto implements engine.Env.
func (r *replicaNode) Crypto() crypto.Provider { return r.cryptoProv }

// Execute implements engine.Env.
func (r *replicaNode) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	r.charge(time.Duration(b.Len()) * r.g.cfg.Cost.ExecPerReq)
	results := r.store.ApplyBatch(b)
	if r.lease != nil {
		r.lease.NoteExec(seq)
		r.scanLeaseGrants(b, results)
		// A committed range freeze (or revoke op) cleared the store's lease
		// flag deterministically; the clock-bound tracker stops the same
		// virtual instant the batch executes.
		if _, storeActive := r.store.LeaseEpoch(); !storeActive {
			if _, wasActive := r.lease.Epoch(); wasActive {
				r.metrics().Counter(obs.MLeaseRevocations).Inc()
			}
			r.lease.Revoke()
		}
		r.store.SyncView(r.readView, seq)
	}
	return results
}

// scanLeaseGrants installs the lease binding for every OpLeaseGrant the
// batch committed — the simulator twin of the runtime node's grant scan.
// Only the view's primary arms its tracker, anchoring the grant to the
// group's trusted counter with one attested access (charged on the
// machine's TC timeline like any other).
func (r *replicaNode) scanLeaseGrants(b *types.Batch, results []types.Result) {
	for i, req := range b.Requests {
		if len(req.Op) == 0 || kvstore.OpCode(req.Op[0]) != kvstore.OpLeaseGrant || i >= len(results) {
			continue
		}
		op, err := kvstore.DecodeOp(req.Op)
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
		sr, reports := r.proto.(engine.StatusReporter)
		if !reports {
			continue
		}
		st := sr.Status()
		if st.Primary != r.id || st.InViewChange {
			continue
		}
		var att *types.Attestation
		if a, err := r.Trusted().AppendF(engine.LeaseCounterID, engine.LeaseGrantDigest(
			r.g.cfg.Engine.TrustedNamespace, st.View, epoch, dur)); err == nil {
			att = a
		}
		expiry := r.g.now() + dur - r.g.cfg.Engine.LeaseSafetyMargin
		r.lease.Grant(st.View, epoch, expiry, att)
		// Remember the binding outside the tracker: the staleServe byzantine
		// model keeps serving from it after an honest tracker would have
		// revoked.
		r.staleView, r.staleEpoch, r.staleAtt = st.View, epoch, att
	}
}

// StateDigest implements engine.Env.
func (r *replicaNode) StateDigest() types.Digest { return r.store.StateDigest() }

// SnapshotState implements engine.Env.
func (r *replicaNode) SnapshotState() any { return r.store.Snapshot() }

// RestoreState implements engine.Env. A rollback may rewind the committed
// lease state, so local serving stops until a fresh grant commits.
func (r *replicaNode) RestoreState(snap any) {
	r.store.Restore(snap.(*kvstore.Snapshot))
	r.lease.Revoke()
}

// Defer implements engine.Env: the callback becomes its own worker event.
func (r *replicaNode) Defer(fn func()) {
	r.g.scheduleFunc(r.g.now(), func() {
		r.runHandler(fn)
	})
}

// Logf implements engine.Env.
func (r *replicaNode) Logf(format string, args ...any) {
	if r.g.cfg.Trace {
		if len(r.g.mc.groups) > 1 {
			fmt.Printf("[%12s g%d r%d] %s\n", r.g.now(), r.g.idx, r.id, fmt.Sprintf(format, args...))
			return
		}
		fmt.Printf("[%12s r%d] %s\n", r.g.now(), r.id, fmt.Sprintf(format, args...))
	}
}

// chargingTC decorates the machine's trusted component for one replica:
// each operation waits for the machine's serialized TC timeline, then
// occupies it for AccessCost (the ecall/hardware access) plus TCSign
// (in-enclave attestation signing). Host-sequenced Append operations also
// own the machine's single attested stream: when another co-hosted group
// held it last, the stream-retarget drain (CostModel.TCStreamHandoff) is
// paid first — the emergent form of the USIG time-sharing argument.
// Attestations are minted by the machine's component, so their host
// identity is rewritten back to the replica's logical id before the
// protocol sees them (the placement-aware inverse lives in
// VerifyAttestation).
type chargingTC struct {
	node  *replicaNode
	inner trusted.Component
}

// chargeAccess models one serialized component operation; hostSeq marks
// operations on the host-sequenced stream (the Append discipline).
func (t *chargingTC) chargeAccess(hostSeq bool) {
	n := t.node
	busy := n.busyPoint()
	finish := n.m.tcAccess(busy, n.g.idx, hostSeq)
	n.charge(finish - busy) // wait + access, from this handler's view
}

// relabel rewrites the machine-host identity on a returned attestation to
// the replica's logical id (a no-op when the replica's machine index equals
// its id, as in every single-group identity placement).
func (t *chargingTC) relabel(a *types.Attestation) *types.Attestation {
	if a == nil || a.Replica == t.node.id {
		return a
	}
	m := *a
	m.Replica = t.node.id
	return &m
}

func (t *chargingTC) Host() types.ReplicaID    { return t.node.id }
func (t *chargingTC) Profile() trusted.Profile { return t.inner.Profile() }

func (t *chargingTC) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	t.chargeAccess(false)
	a, err := t.inner.AppendF(q, x)
	return t.relabel(a), err
}

func (t *chargingTC) Append(q uint32, k uint64, x types.Digest) (*types.Attestation, error) {
	t.chargeAccess(true)
	a, err := t.inner.Append(q, k, x)
	return t.relabel(a), err
}

func (t *chargingTC) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	t.chargeAccess(false)
	a, err := t.inner.Lookup(q, k)
	return t.relabel(a), err
}

func (t *chargingTC) Create(q uint32, k uint64) (*types.Attestation, error) {
	t.chargeAccess(false)
	a, err := t.inner.Create(q, k)
	return t.relabel(a), err
}

func (t *chargingTC) Current(q uint32) (uint32, uint64, error) { return t.inner.Current(q) }
func (t *chargingTC) Accesses() uint64                         { return t.inner.Accesses() }
func (t *chargingTC) LogSize() int                             { return t.inner.LogSize() }
func (t *chargingTC) Snapshot() *trusted.State                 { return t.inner.Snapshot() }
func (t *chargingTC) Restore(s *trusted.State) error           { return t.inner.Restore(s) }

// simCrypto is the accounting-only crypto provider: operations charge their
// modeled cost and succeed structurally (the simulator's transport already
// authenticates senders; real signatures are exercised by the runtime).
type simCrypto struct {
	node *replicaNode
}

// Sign implements crypto.Provider.
func (s *simCrypto) Sign(_ []byte) []byte {
	s.node.charge(s.node.g.cfg.Cost.DSSign)
	return nil
}

// Verify implements crypto.Provider.
func (s *simCrypto) Verify(_ types.ReplicaID, _, _ []byte) bool {
	s.node.charge(s.node.g.cfg.Cost.DSVerify)
	return true
}

// VerifyClient implements crypto.Provider.
func (s *simCrypto) VerifyClient(_ types.ClientID, _, _ []byte) bool {
	s.node.charge(s.node.g.cfg.Cost.ClientVerifyPerReq)
	return true
}

// MAC implements crypto.Provider.
func (s *simCrypto) MAC(_ types.ReplicaID, _ []byte) []byte {
	s.node.charge(s.node.g.cfg.Cost.MACSign)
	return nil
}

// CheckMAC implements crypto.Provider.
func (s *simCrypto) CheckMAC(_ types.ReplicaID, _, _ []byte) bool {
	s.node.charge(s.node.g.cfg.Cost.MACVerify)
	return true
}

// VerifyQC implements crypto.Provider: one certificate check plus the
// amortized batch-verification share per carried signature, against n loose
// DSVerify charges without aggregation. The structural check is performed
// for real — malformed bitmaps and sub-quorum signer sets are rejected even
// in the accounting-only provider.
func (s *simCrypto) VerifyQC(qc *crypto.QuorumCert, quorum int) bool {
	s.node.charge(s.node.g.cfg.Cost.VerifyQC)
	if qc == nil {
		return false
	}
	s.node.charge(time.Duration(len(qc.Sigs)) * s.node.g.cfg.Cost.VerifyBatchN)
	return qc.Check(s.node.g.cfg.Engine.N, quorum) == nil
}

// VerifyWC implements crypto.Provider: the chain fold costs one hash per
// covered batch (TCAccessWindow each) — orders of magnitude below the
// trusted-counter access it replaces, which is where windowed attestation's
// speedup comes from. The structural and chain checks run for real so a
// forged window is rejected even in the accounting-only provider.
func (s *simCrypto) VerifyWC(wc *crypto.WindowCert) bool {
	if wc == nil {
		return false
	}
	s.node.charge(time.Duration(len(wc.Digests)) * s.node.g.cfg.Cost.TCAccessWindow)
	return wc.Check() == nil
}
