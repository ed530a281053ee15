package sim

import (
	"slices"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// clientPool aggregates every closed-loop client of one consensus group
// into one simulator node: it issues requests, records latency, and
// immediately re-issues a new request per completed one (closed loop). The
// client's request state machine — tally, commit-certificate slow path,
// resends — is an engine.ClientCore the pool drives as its substrate.
// Clients are external to the simulated machines, so a pool never contends
// on machine resources.
type clientPool struct {
	g          *group
	core       *engine.ClientCore
	numClients int
	gen        *workload.Generator
	nextReq    []uint64
	// sent is each closed-loop client's latency baseline for its one
	// outstanding operation; external maps the requests submitted from
	// outside the closed loop (lease grants, the drivers) to their callbacks.
	sent      []time.Duration
	external  map[types.RequestKey]func(value []byte)
	collector *collector
	timerGen  map[types.TimerID]uint64
	// pendingSends accumulates new requests during one event, flushed as a
	// single RequestBatch at the end.
	pendingSends []*types.ClientRequest

	// Read-lease client state (lease is nil unless Engine.ReadLease): the
	// pool grants the group's lease through consensus as external client 0,
	// renews it on a virtual-time schedule, and sends OpReads straight to the
	// primary while the holder — the one shard.Cluster reads through — says
	// the binding is usable.
	lease         *engine.LeaseHolder
	leaseSeq      uint64
	nextLeaseRead uint64
	leaseReadsOut map[uint64]*leaseRead
	leaseCol      *collector
	leaseFalls    uint64 // whole-run fallback count (health signal)
}

// leaseRead tracks one outstanding leased fast-path read.
type leaseRead struct {
	ci    int
	epoch uint64 // lease epoch the read went out under
	op    []byte
	sent  time.Duration
	fence types.SeqNum
}

// leaseClientID is the reserved client the pool's lease grants (and its
// core's certificates) run under: closed-loop clients are 1..numClients.
const leaseClientID types.ClientID = 0

// leaseSweep is the pool's own timer: leased reads unanswered past the
// first resend deadline fall back to consensus.
var leaseSweep = types.TimerID{Kind: types.TimerClientRetry, Aux: 1}

// newClientPool wires a pool for the group's cfg.Clients closed-loop
// clients.
func newClientPool(g *group) *clientPool {
	p := &clientPool{
		g:             g,
		numClients:    g.cfg.Clients,
		gen:           workload.NewGenerator(g.cfg.Workload),
		nextReq:       make([]uint64, g.cfg.Clients),
		sent:          make([]time.Duration, g.cfg.Clients),
		external:      make(map[types.RequestKey]func([]byte)),
		collector:     newCollector(1 << 21),
		timerGen:      make(map[types.TimerID]uint64),
		leaseReadsOut: make(map[uint64]*leaseRead),
		leaseCol:      newCollector(1 << 21),
	}
	p.core = engine.NewClientCore(p, leaseClientID, g.cfg.N, g.cfg.F, g.cfg.Replies, g.cfg.ClientRetry)
	if g.cfg.Engine.ReadLease {
		// The group's lease knobs with the engine's defaults applied.
		dur := g.cfg.Engine.LeaseDuration
		if dur <= 0 {
			dur = 100 * time.Millisecond
		}
		margin := g.cfg.Engine.LeaseSafetyMargin
		if margin <= 0 || margin >= dur {
			margin = dur / 10
		}
		p.lease = engine.NewLeaseHolder(g.cfg.N, dur, margin)
	}
	return p
}

// start ramps the initial window of requests in over rampOver to avoid an
// unrealistic t=0 burst.
func (p *clientPool) start(rampOver time.Duration) {
	const chunks = 50
	per := max(p.numClients/chunks, 1)
	for i, first := 0, 0; first < p.numClients; i, first = i+1, first+per {
		last := min(first+per, p.numClients)
		p.g.scheduleFunc(time.Duration(i)*(rampOver/chunks), func() {
			for ci := first; ci < last; ci++ {
				p.issue(ci)
			}
			p.flushSends()
		})
	}
	// The first lease grant goes in with the ramp; renewals re-arm
	// themselves on a deterministic virtual-time schedule.
	if p.lease != nil {
		p.SetTimer(leaseSweep, p.leaseReadTimeout()/2)
		p.g.scheduleFunc(0, func() {
			p.renewLease()
			p.flushSends()
		})
	}
}

// renewLease submits one OpLeaseGrant through consensus (as the reserved
// lease client) and installs the resulting binding client-side when it
// commits. Renewal re-arms at half the lease duration, so an unbroken
// primary holds an unbroken lease; after a view change the stale binding
// fails reply checks until the next renewal commits in the new view.
func (p *clientPool) renewLease() {
	if !p.lease.BeginGrant() {
		return
	}
	p.leaseSeq++
	submitted := p.g.now()
	p.submitExternal(leaseClientID, p.leaseSeq, kvstore.EncodeLeaseGrant(p.lease.Duration()).Encode(), func(value []byte) {
		if epoch, ok := kvstore.DecodeLeaseGrant(value); ok {
			// The core has already folded the committing view in.
			p.lease.Install(p.core.View(), epoch, submitted)
		} else {
			p.lease.GrantFailed()
		}
		p.g.scheduleFunc(p.g.now()+p.lease.Duration()/2, func() {
			p.renewLease()
			p.flushSends()
		})
	})
}

// leaseReadTimeout is how long a leased read waits for its answer: the
// core's first resend deadline. The sweep runs every half of it.
func (p *clientPool) leaseReadTimeout() time.Duration { return p.g.cfg.ClientRetry / 8 }

// issue creates and queues the next request for client index ci: single-key
// reads ride the leased fast path when the lease is live, everything else
// goes through consensus.
func (p *clientPool) issue(ci int) {
	op := p.gen.Next()
	if len(op) > 0 && kvstore.OpCode(op[0]) == kvstore.OpRead && p.lease != nil {
		if b, ok := p.lease.Usable(p.g.now()); ok {
			p.issueLeased(ci, b.Epoch, op, p.g.now())
			return
		}
	}
	p.issueOp(ci, op, p.g.now())
}

// issueOp queues op as a consensus submission for client ci; sent is the
// latency baseline (the original issue instant, so a fallback from the
// leased path keeps its true latency).
func (p *clientPool) issueOp(ci int, op []byte, sent time.Duration) {
	p.nextReq[ci]++
	p.sent[ci] = sent
	p.core.Submit(&types.ClientRequest{
		Client:    types.ClientID(ci + 1),
		ReqNo:     p.nextReq[ci],
		Op:        op,
		Timestamp: int64(p.g.now()),
	})
}

// issueLeased sends a single-key read straight to the believed primary under
// the lease, fenced by the pool's observed commit watermark.
func (p *clientPool) issueLeased(ci int, epoch uint64, op []byte, sent time.Duration) {
	kop, err := kvstore.DecodeOp(op)
	if err != nil {
		p.issueOp(ci, op, sent)
		return
	}
	p.nextLeaseRead++
	fence := p.core.Watermark()
	p.leaseReadsOut[p.nextLeaseRead] = &leaseRead{ci: ci, epoch: epoch, op: op, sent: sent, fence: fence}
	p.sendTo(int(p.core.Primary()),
		&types.LeaseRead{Client: types.ClientID(ci + 1), ReadNo: p.nextLeaseRead, Key: kop.Key, Fence: fence})
}

// flushSends transmits accumulated requests to the current primary.
func (p *clientPool) flushSends() {
	if len(p.pendingSends) == 0 {
		return
	}
	p.sendTo(int(p.core.Primary()), &types.RequestBatch{Requests: slices.Clone(p.pendingSends)})
	p.pendingSends = p.pendingSends[:0]
}

// sendTo schedules delivery of m to replica index idx with client-link
// latency.
func (p *clientPool) sendTo(idx int, m types.Message) {
	lat := p.g.cfg.Topo.ClientLink(idx)
	p.g.scheduleMessage(p.g.now()+lat, p.g.poolIdx(), idx, m)
}

// handleMessage implements node.
func (p *clientPool) handleMessage(from int, m types.Message) {
	switch msg := m.(type) {
	case *types.LeaseReadReply:
		p.onLeaseReadReply(msg)
	default:
		p.core.OnMessage(types.ReplicaID(from), m)
	}
	p.flushSends()
}

// onLeaseReadReply resolves one leased read. The holder judges the reply
// (engine.LeaseHolder.Accept: served under the exact binding the pool holds,
// verified grant attestation, watermark at or above the fence the read went
// out with); everything else falls back to a consensus read of the same
// operation, with the original issue time as its latency baseline.
func (p *clientPool) onLeaseReadReply(r *types.LeaseReadReply) {
	lr := p.leaseReadsOut[r.ReadNo]
	if lr == nil {
		return
	}
	delete(p.leaseReadsOut, r.ReadNo)
	switch p.lease.Accept(r, lr.epoch, lr.fence, p.g.now(), p.leaseAttestValid) {
	case engine.LeaseAccepted:
		now := p.g.now()
		p.collector.record(now, now-lr.sent)
		p.leaseCol.record(now, now-lr.sent)
		p.issue(lr.ci)
		return
	}
	p.fallBack(lr)
}

// fallBack re-issues a failed leased read as a consensus read, with its
// original issue time as the latency baseline.
func (p *clientPool) fallBack(lr *leaseRead) {
	p.leaseFalls++
	p.g.cfg.Engine.Observer.Metrics().Counter(obs.MLeaseFallbacks).Inc()
	p.issueOp(lr.ci, lr.op, lr.sent)
}

// leaseAttestValid checks the grant attestation a serving primary presents
// (the holder asks once per lease epoch) under the machine-level authority.
func (p *clientPool) leaseAttestValid(r *types.LeaseReadReply) bool {
	return engine.GrantAttested(r, p.g.cfg.Engine.TrustedNamespace, p.lease.Duration(), p.g.verifyMinted)
}

// submitExternal submits op from outside the closed loop (lease grants, the
// cross-group drivers) as request reqNo of client; cb fires once when the
// reply quorum completes it. The caller owns client-id and request-number
// uniqueness — external client ids live above the pool's numClients range.
func (p *clientPool) submitExternal(client types.ClientID, reqNo uint64, op []byte, cb func(value []byte)) {
	req := &types.ClientRequest{Client: client, ReqNo: reqNo, Op: op, Timestamp: int64(p.g.now())}
	p.external[req.Key()] = cb
	p.core.Submit(req)
	p.flushSends()
}

// handleTimer implements node.
func (p *clientPool) handleTimer(t types.TimerID, gen uint64) {
	if p.timerGen[t] != gen {
		return
	}
	if t == leaseSweep {
		p.sweepLeaseReads()
	} else {
		p.core.OnTimer(t)
	}
	p.flushSends()
}

// sweepLeaseReads falls back to consensus for leased reads that never got an
// answer (primary crashed or partitioned mid-lease): the lease is dropped
// and each due read re-enters as an ordinary submission, in ReadNo order for
// determinism.
func (p *clientPool) sweepLeaseReads() {
	cutoff := p.g.now() - p.leaseReadTimeout()
	var dueReads []uint64
	for no, lr := range p.leaseReadsOut {
		if lr.sent <= cutoff {
			dueReads = append(dueReads, no)
		}
	}
	slices.Sort(dueReads)
	for _, no := range dueReads {
		lr := p.leaseReadsOut[no]
		delete(p.leaseReadsOut, no)
		p.lease.Drop(lr.epoch)
		p.fallBack(lr)
	}
	p.SetTimer(leaseSweep, p.leaseReadTimeout()/2)
}

// Now implements engine.ClientSubstrate.
func (p *clientPool) Now() time.Duration { return p.g.now() }

// Send implements engine.ClientSubstrate. The core sends only fresh
// requests, to the believed primary; the pool gathers an event's worth into
// one RequestBatch (flushSends).
func (p *clientPool) Send(_ types.ReplicaID, m types.Message) {
	p.pendingSends = append(p.pendingSends, m.(*types.ClientRequest))
}

// Broadcast implements engine.ClientSubstrate.
func (p *clientPool) Broadcast(m types.Message) {
	for idx := range p.g.replicas {
		p.sendTo(idx, m)
	}
}

// SetTimer implements engine.ClientSubstrate.
func (p *clientPool) SetTimer(id types.TimerID, d time.Duration) {
	p.timerGen[id]++
	p.g.scheduleTimer(p.g.now()+d, p.g.poolIdx(), id, p.timerGen[id])
}

// Complete implements engine.ClientSubstrate: an external request's callback
// runs; a closed-loop client records its latency and issues its next
// operation.
func (p *clientPool) Complete(req *types.ClientRequest, value []byte, _ types.SeqNum, _ types.View) {
	if cb, ok := p.external[req.Key()]; ok {
		delete(p.external, req.Key())
		cb(append([]byte(nil), value...))
		return
	}
	ci := int(req.Client) - 1
	p.collector.record(p.g.now(), p.g.now()-p.sent[ci])
	p.issue(ci)
}
