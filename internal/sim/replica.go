package sim

import (
	"fmt"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// replicaNode runs one protocol instance's engine.Host inside the simulator.
// CPU and trusted-component time live on the replica's Machine: a handler
// occupies the machine's earliest-free worker from max(arrival, free) for a
// duration accumulated from the cost model; its outbound messages depart at
// completion. Replicas of other groups placed on the same machine draw from
// the same worker pool and the same trusted-component timeline — co-location
// contention is shared state, not per-replica accounting.
type replicaNode struct {
	*engine.Host
	g   *group
	idx int
	m   *Machine

	timerGen map[types.TimerID]uint64

	crashed bool
	// sendFilter, when set, decides whether an outbound message is actually
	// transmitted (byzantine withholding). to == poolIdx targets clients.
	sendFilter func(to int, m types.Message) bool

	// lastArrival enforces per-link FIFO delivery (TCP-like ordering).
	lastArrival []time.Duration

	// Handler-scoped state, valid only while a handler runs.
	curStart   time.Duration
	curCharges time.Duration
	outbox     []simOut

	cryptoProv *simCrypto
	mPending   *obs.Gauge
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
	r.curStart = start
	r.curCharges = 0
	r.outbox = r.outbox[:0]

	fn()

	finish := start + r.curCharges
	workers[wi] = finish

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
	sender := types.ReplicaID(from)
	if from < 0 || from >= len(r.g.replicas) {
		sender = -1 // client-originated: requests, resends, commit certs, leased reads
	}
	r.runHandler(func() { r.Deliver(sender, m) })
}

// handleTimer implements node.
func (r *replicaNode) handleTimer(t types.TimerID, gen uint64) {
	if r.crashed || r.timerGen[t] != gen {
		return
	}
	r.runHandler(func() {
		r.Charge(engine.StepBaseHandle, 1)
		r.Protocol().OnTimer(t)
	})
}

// --- engine.Env implementation ---

// emit queues m for group-local node to, charging one authenticator and one
// send.
func (r *replicaNode) emit(to int, m types.Message) {
	r.Charge(engine.StepMACSign, 1)
	r.Charge(engine.StepSendOverhead, 1)
	r.outbox = append(r.outbox, simOut{to: to, m: m, depart: r.busyPoint()})
}

// Send implements engine.Env.
func (r *replicaNode) Send(to types.ReplicaID, m types.Message) { r.emit(int(to), m) }

// Broadcast implements engine.Env.
func (r *replicaNode) Broadcast(m types.Message) {
	for j := range r.g.replicas {
		if j != r.idx {
			r.emit(j, m)
		}
	}
}

// Respond implements engine.Env. One frame reaches the client pool; the
// charge covers a per-client authenticator for every covered client plus
// one send. (ResilientDB-class systems emit client replies from dedicated
// output threads; charging full per-client send overhead on the consensus
// worker would serialize proposal emission behind reply fan-out, which no
// pipelined implementation does.)
func (r *replicaNode) Respond(resp *types.Response) {
	r.Charge(engine.StepMACSign, len(resp.Results))
	r.Charge(engine.StepSendOverhead, 1)
	r.outbox = append(r.outbox, simOut{to: r.g.poolIdx(), m: resp, depart: r.busyPoint()})
}

// SendClient implements engine.Env.
func (r *replicaNode) SendClient(_ types.ClientID, m types.Message) { r.emit(r.g.poolIdx(), m) }

// SetTimer implements engine.Env.
func (r *replicaNode) SetTimer(id types.TimerID, d time.Duration) {
	r.timerGen[id]++
	r.g.scheduleTimer(r.g.now()+d, r.idx, id, r.timerGen[id])
}

// CancelTimer implements engine.Env.
func (r *replicaNode) CancelTimer(id types.TimerID) { r.timerGen[id]++ }

// Now implements engine.Env.
func (r *replicaNode) Now() time.Duration { return r.g.now() }

// Charge implements engine.Substrate: the cost model's price for n units of
// step, added to the running handler.
func (r *replicaNode) Charge(step engine.Step, n int) {
	r.charge(time.Duration(n) * r.g.prices[step])
}

// TrustedAccess implements engine.Substrate: the access waits for the
// machine's serialized component timeline, then occupies it for AccessCost
// (the ecall/hardware access) plus TCSign (in-enclave attestation signing).
// Host-sequenced Append operations also own the machine's single attested
// stream: when another co-hosted group held it last, the stream-retarget
// drain (CostModel.TCStreamHandoff) is paid first — the emergent form of the
// USIG time-sharing argument.
func (r *replicaNode) TrustedAccess(hostSeq bool) {
	busy := r.busyPoint()
	r.charge(r.m.tcAccess(busy, r.g.idx, hostSeq) - busy) // wait + access
}

// VerifyDone implements engine.Substrate. The cost model prices a memo-miss
// attestation check as an asynchronous batch verification: its completion
// is a worker event of its own, charged CostModel.VerifyBatchN, and counted
// in mPending until it runs.
func (r *replicaNode) VerifyDone(ok bool, done func(ok bool)) {
	r.mPending.Add(1)
	r.Defer(func() {
		r.mPending.Add(-1)
		r.Charge(engine.StepVerifyBatchN, 1)
		done(ok)
	})
}

// SendLeaseReply implements engine.Substrate.
func (r *replicaNode) SendLeaseReply(_ types.ClientID, reply types.LeaseReadReply) {
	r.outbox = append(r.outbox, simOut{to: r.g.poolIdx(), m: &reply, depart: r.busyPoint()})
}

// Crypto implements engine.Env.
func (r *replicaNode) Crypto() crypto.Provider { return r.cryptoProv }

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
			fmt.Printf("[%12s g%d r%d] %s\n", r.g.now(), r.g.idx, r.ID(), fmt.Sprintf(format, args...))
			return
		}
		fmt.Printf("[%12s r%d] %s\n", r.g.now(), r.ID(), fmt.Sprintf(format, args...))
	}
}

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

// VerifyClient implements crypto.Provider: the one place the simulator
// charges a client authenticator check, however it was reached.
func (s *simCrypto) VerifyClient(_ types.ClientID, _, _ []byte) bool {
	s.node.Charge(engine.StepClientVerifyPerReq, 1)
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
