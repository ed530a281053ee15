package sim

import (
	"encoding/binary"
	"sort"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/metrics"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// ReplyPolicy is the client library's completion rule for one protocol: how
// many matching responses finish a transaction on the fast path, and the
// Zyzzyva/MinZZ-style commit-certificate slow path parameters.
type ReplyPolicy struct {
	// Fast is the matching-response quorum that completes a transaction:
	// f+1 for PBFT/MinBFT/Flexi-BFT, 2f+1 for Flexi-ZZ, all n for
	// Zyzzyva's and MinZZ's fast paths.
	Fast int
	// Slow, when non-zero, enables the commit-certificate slow path: if the
	// fast quorum has not formed after CertTimeout but Slow matching
	// speculative responses exist, the client broadcasts a CommitCert.
	Slow int
	// CertAck is the LocalCommit quorum that then completes the batch.
	CertAck int
	// CertTimeout arms the slow path.
	CertTimeout time.Duration
	// RetryTimeout re-broadcasts a request that got no resolution
	// (ClientResend), the paper's "client complains to all replicas".
	RetryTimeout time.Duration
}

// poolTxn tracks one outstanding closed-loop transaction.
type poolTxn struct {
	sent       time.Duration // original send (latency baseline)
	lastResend time.Duration
	req        *types.ClientRequest
	// cb, when set, marks an externally-submitted request (the cross-group
	// transaction driver): completion calls cb instead of recording into
	// the pool's collector and issuing a closed-loop replacement.
	cb func(value []byte)
}

// respTally counts matching responses for one (seq, match-digest) value.
type respTally struct {
	replicas bitset
	results  []types.Result
	digest   types.Digest // batch digest (for CommitCert)
	history  types.Digest
	view     types.View
	certAcks bitset
}

// batchState aggregates client-side progress for one sequence number.
type batchState struct {
	firstSeen time.Duration
	tallies   map[types.Digest]*respTally
	certSent  bool
	done      bool
}

// bitset holds up to 128 replica bits (n ≤ 97 in every experiment).
type bitset [2]uint64

// set marks bit i and reports whether it was newly set.
func (b *bitset) set(i int) bool {
	w, m := i/64, uint64(1)<<(i%64)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// count returns the number of set bits.
func (b *bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// clientPool aggregates every closed-loop client of one consensus group
// into one simulator node: it issues requests to the primary, applies the
// protocol's reply rule to the responses, records latency, and immediately
// re-issues a new request per completed one (closed loop). It also
// implements the client side of Zyzzyva/MinZZ commit certificates and
// request re-broadcast. Clients are external to the simulated machines, so
// a pool never contends on machine resources.
type clientPool struct {
	g          *group
	policy     ReplyPolicy
	numClients int
	gen        *workload.Generator
	nextReq    []uint64
	txns       map[types.RequestKey]*poolTxn
	batches    map[types.SeqNum]*batchState
	collector  *metrics.Collector
	primary    int
	view       types.View
	timerGen   map[types.TimerID]uint64
	started    int // clients whose first request has been issued
	// pendingSends accumulates new requests during one event, flushed as a
	// single RequestBatch at the end.
	pendingSends []*types.ClientRequest
	resends      uint64
	certsSent    uint64

	// Read-lease client state (lease is nil unless Engine.ReadLease). The
	// pool grants the group's lease through consensus as the reserved
	// external client 0 and renews it on a deterministic virtual-time
	// schedule; while the holder says the binding is usable, OpRead operations
	// go straight to the primary as LeaseRead exchanges instead of consensus
	// submissions. The holder is the same state machine the runtime's
	// shard.Cluster reads through; only the renewal trigger differs (a
	// scheduled event here, the first read past half-life there).
	lease         *engine.LeaseHolder
	leaseSeq      uint64
	nextLeaseRead uint64
	leaseReadsOut map[uint64]*leaseRead
	leaseCol      *metrics.Collector
	watermark     types.SeqNum // highest committed seq observed (the fence)
	leaseFalls    uint64       // whole-run fallback count (health signal)
}

// leaseRead tracks one outstanding leased fast-path read.
type leaseRead struct {
	ci    int
	epoch uint64 // lease epoch the read went out under
	op    []byte
	sent  time.Duration
	fence types.SeqNum
}

// leaseClientID is the reserved client identity the pool's lease grant ops
// run under (closed-loop clients are 1..numClients, transaction-driver
// clients live above that; 0 is free).
const leaseClientID types.ClientID = 0

// newClientPool wires a pool for the group's cfg.Clients closed-loop
// clients.
func newClientPool(g *group) *clientPool {
	p := &clientPool{
		g:             g,
		policy:        g.cfg.Policy,
		numClients:    g.cfg.Clients,
		gen:           workload.NewGenerator(g.cfg.Workload),
		nextReq:       make([]uint64, g.cfg.Clients),
		txns:          make(map[types.RequestKey]*poolTxn, g.cfg.Clients),
		batches:       make(map[types.SeqNum]*batchState),
		collector:     metrics.NewCollector(1 << 21),
		timerGen:      make(map[types.TimerID]uint64),
		leaseReadsOut: make(map[uint64]*leaseRead),
		leaseCol:      metrics.NewCollector(1 << 21),
	}
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
	per := p.numClients / chunks
	if per == 0 {
		per = 1
	}
	step := rampOver / chunks
	issued := 0
	for i := 0; issued < p.numClients; i++ {
		count := per
		if issued+count > p.numClients {
			count = p.numClients - issued
		}
		first := issued
		p.g.scheduleFunc(time.Duration(i)*step, func() {
			for k := 0; k < count; k++ {
				p.issue(first + k)
			}
			p.flushSends()
		})
		issued += count
	}
	// Periodic resend sweep.
	if p.policy.RetryTimeout > 0 {
		p.armSweep()
	}
	// The first lease grant goes in with the ramp; renewals re-arm
	// themselves on a deterministic virtual-time schedule.
	if p.lease != nil {
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
	req := &types.ClientRequest{
		Client:    leaseClientID,
		ReqNo:     p.leaseSeq,
		Op:        kvstore.EncodeLeaseGrant(p.lease.Duration()).Encode(),
		Timestamp: int64(p.g.now()),
	}
	submitted := p.g.now()
	p.submitExternal(req, func(value []byte) {
		if epoch, ok := kvstore.DecodeLeaseGrant(value); ok {
			// complete() has already folded the committing view in.
			p.lease.Install(p.view, epoch, submitted)
		} else {
			p.lease.GrantFailed()
		}
		p.g.scheduleFunc(p.g.now()+p.lease.Duration()/2, func() {
			p.renewLease()
			p.flushSends()
		})
	})
}

// leaseUsable reports whether the pool currently routes reads down the
// leased fast path.
func (p *clientPool) leaseUsable() (engine.LeaseBinding, bool) {
	if p.lease == nil {
		return engine.LeaseBinding{}, false
	}
	return p.lease.Usable(p.g.now())
}

// armSweep schedules the retry sweep timer.
func (p *clientPool) armSweep() {
	id := types.TimerID{Kind: types.TimerClientRetry}
	p.timerGen[id]++
	p.g.scheduleTimer(p.g.now()+p.policy.RetryTimeout/2, p.g.poolIdx(), id, p.timerGen[id])
}

// issue creates and queues the next request for client index ci: single-key
// reads ride the leased fast path when the lease is live, everything else
// goes through consensus.
func (p *clientPool) issue(ci int) {
	op := p.gen.Next()
	if len(op) > 0 && kvstore.OpCode(op[0]) == kvstore.OpRead {
		if b, ok := p.leaseUsable(); ok {
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
	req := &types.ClientRequest{
		Client:    types.ClientID(ci + 1),
		ReqNo:     p.nextReq[ci],
		Op:        op,
		Timestamp: int64(p.g.now()),
	}
	p.txns[req.Key()] = &poolTxn{sent: sent, req: req}
	p.pendingSends = append(p.pendingSends, req)
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
	p.leaseReadsOut[p.nextLeaseRead] = &leaseRead{
		ci: ci, epoch: epoch, op: op, sent: sent, fence: p.watermark,
	}
	p.sendTo(p.primary, &types.LeaseRead{
		Client: types.ClientID(ci + 1), ReadNo: p.nextLeaseRead,
		Key: kop.Key, Fence: p.watermark,
	})
}

// flushSends transmits accumulated requests to the current primary.
func (p *clientPool) flushSends() {
	if len(p.pendingSends) == 0 {
		return
	}
	reqs := make([]*types.ClientRequest, len(p.pendingSends))
	copy(reqs, p.pendingSends)
	p.pendingSends = p.pendingSends[:0]
	p.sendTo(p.primary, &types.RequestBatch{Requests: reqs})
}

// sendTo schedules delivery of m to replica index idx with client-link
// latency.
func (p *clientPool) sendTo(idx int, m types.Message) {
	lat := p.g.cfg.Topo.ClientLink(idx)
	p.g.scheduleMessage(p.g.now()+lat, p.g.poolIdx(), idx, m)
}

// matchKey hashes the fields that must be identical across replicas for
// responses to "match": view, sequence, batch digest, history and results.
func matchKey(r *types.Response) types.Digest {
	var hdr [8 + 8]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(r.View))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(r.Seq))
	parts := make([][]byte, 0, 3+2*len(r.Results))
	parts = append(parts, hdr[:], r.Digest[:], r.History[:])
	var nums [16]byte
	for i := range r.Results {
		res := &r.Results[i]
		binary.BigEndian.PutUint64(nums[0:8], uint64(res.Client))
		binary.BigEndian.PutUint64(nums[8:16], res.ReqNo)
		parts = append(parts, append([]byte(nil), nums[:]...), res.Value)
	}
	return crypto.HashConcat(parts...)
}

// handleMessage implements node.
func (p *clientPool) handleMessage(from int, m types.Message) {
	switch msg := m.(type) {
	case *types.Response:
		p.onResponse(from, msg)
	case *types.LocalCommit:
		p.onLocalCommit(from, msg)
	case *types.LeaseReadReply:
		p.onLeaseReadReply(msg)
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
		p.collector.Record(now, now-lr.sent)
		p.leaseCol.Record(now, now-lr.sent)
		p.issue(lr.ci)
		return
	case engine.LeaseRenewing, engine.LeaseMismatch:
		// The pool is coarser than the holder here, on purpose: any served
		// reply that does not bind the held lease ends it until the next
		// scheduled renewal — including a late reply under the PREVIOUS
		// epoch, which the holder alone would shrug off. That is the
		// behaviour BENCH_baseline.json's reads entries were recorded under
		// (it costs MinBFT, whose backups acknowledge a renewal before its
		// primary executes it, about a sixth of its leased throughput at
		// S=4: 1.57M against 1.89M txn/s); adopting the holder's rule is a
		// baseline regeneration, not a refactor.
		p.lease.Invalidate()
	}
	p.leaseFalls++
	p.metrics().Counter(obs.MLeaseFallbacks).Inc()
	p.issueOp(lr.ci, lr.op, lr.sent)
}

// leaseAttestValid checks the grant attestation a serving primary presents
// (the holder asks once per lease epoch) under the machine-level authority.
func (p *clientPool) leaseAttestValid(r *types.LeaseReadReply) bool {
	return engine.GrantAttested(r, p.g.cfg.Engine.TrustedNamespace, p.lease.Duration(), p.g.verifyMinted)
}

// metrics returns the (nil-safe) metrics registry of the configured
// observer.
func (p *clientPool) metrics() *obs.Registry {
	return p.g.cfg.Engine.Observer.Metrics()
}

// onResponse folds one replica's response into the batch tallies.
func (p *clientPool) onResponse(from int, r *types.Response) {
	bs := p.batches[r.Seq]
	if bs == nil {
		bs = &batchState{firstSeen: p.g.now(), tallies: make(map[types.Digest]*respTally)}
		p.batches[r.Seq] = bs
		if p.policy.Slow > 0 {
			id := types.TimerID{Kind: types.TimerRequestForwarded, Seq: r.Seq}
			p.timerGen[id]++
			p.g.scheduleTimer(p.g.now()+p.policy.CertTimeout, p.g.poolIdx(), id, p.timerGen[id])
		}
	}
	if bs.done {
		return
	}
	mk := matchKey(r)
	tally := bs.tallies[mk]
	if tally == nil {
		tally = &respTally{results: r.Results, digest: r.Digest, history: r.History, view: r.View}
		bs.tallies[mk] = tally
	}
	if !tally.replicas.set(from) {
		return
	}
	if tally.replicas.count() >= p.policy.Fast {
		p.complete(r.Seq, bs, tally)
	}
}

// onLocalCommit tallies slow-path acknowledgements.
func (p *clientPool) onLocalCommit(from int, lc *types.LocalCommit) {
	bs := p.batches[lc.Seq]
	if bs == nil || bs.done {
		return
	}
	for _, tally := range bs.tallies {
		if tally.digest == lc.Digest {
			if tally.certAcks.set(from) && tally.certAcks.count() >= p.policy.CertAck {
				p.complete(lc.Seq, bs, tally)
			}
			return
		}
	}
}

// complete finishes every transaction covered by the winning tally and
// issues replacement requests (closed loop).
func (p *clientPool) complete(seq types.SeqNum, bs *batchState, tally *respTally) {
	bs.done = true
	if seq > p.watermark {
		p.watermark = seq // the fence future leased reads carry
	}
	if tally.view > p.view {
		p.view = tally.view
		p.primary = int(types.Primary(p.view, p.g.cfg.N))
	}
	for i := range tally.results {
		res := &tally.results[i]
		key := types.RequestKey{Client: res.Client, ReqNo: res.ReqNo}
		txn, ok := p.txns[key]
		if !ok {
			continue // already completed under an earlier seq (re-proposal)
		}
		delete(p.txns, key)
		if txn.cb != nil {
			txn.cb(append([]byte(nil), res.Value...))
			continue
		}
		p.collector.Record(p.g.now(), p.g.now()-txn.sent)
		p.issue(int(res.Client) - 1)
	}
}

// submitExternal queues a request built outside the closed loop (the
// cross-group transaction driver); cb fires once when the reply quorum
// completes it. The caller owns client-id and request-number uniqueness —
// external client ids live above the pool's numClients range. External
// requests share the pool's resend sweep.
func (p *clientPool) submitExternal(req *types.ClientRequest, cb func(value []byte)) {
	p.txns[req.Key()] = &poolTxn{sent: p.g.now(), req: req, cb: cb}
	p.pendingSends = append(p.pendingSends, req)
	p.flushSends()
}

// handleTimer implements node.
func (p *clientPool) handleTimer(t types.TimerID, gen uint64) {
	if p.timerGen[t] != gen {
		return
	}
	switch t.Kind {
	case types.TimerRequestForwarded:
		p.onCertTimer(t.Seq)
	case types.TimerClientRetry:
		p.onSweep()
	}
	p.flushSends()
}

// onCertTimer fires the Zyzzyva/MinZZ slow path for a batch whose fast
// quorum did not form in time.
func (p *clientPool) onCertTimer(seq types.SeqNum) {
	bs := p.batches[seq]
	if bs == nil || bs.done {
		return
	}
	// Find the best-supported value.
	var best *respTally
	for _, tally := range bs.tallies {
		if best == nil || tally.replicas.count() > best.replicas.count() {
			best = tally
		}
	}
	if best == nil {
		return
	}
	if !bs.certSent && best.replicas.count() >= p.policy.Slow {
		bs.certSent = true
		p.certsSent++
		cert := &types.CommitCert{
			View:    best.view,
			Seq:     seq,
			Digest:  best.digest,
			History: best.history,
		}
		for idx := range p.g.replicas {
			p.sendTo(idx, cert)
		}
	}
	// Re-arm in case acks get lost too.
	id := types.TimerID{Kind: types.TimerRequestForwarded, Seq: seq}
	p.timerGen[id]++
	p.g.scheduleTimer(p.g.now()+p.policy.CertTimeout, p.g.poolIdx(), id, p.timerGen[id])
}

// onSweep re-broadcasts requests that have waited longer than RetryTimeout.
// Due requests are re-sent in (client, reqno) order: each send draws link
// jitter from the group's RNG, so sweeping in map order would make
// failure-recovery timelines nondeterministic across runs of one seed.
func (p *clientPool) onSweep() {
	cutoff := p.g.now() - p.policy.RetryTimeout
	var due []*poolTxn
	for _, txn := range p.txns {
		last := txn.sent
		if txn.lastResend > last {
			last = txn.lastResend
		}
		if last <= cutoff {
			due = append(due, txn)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].req, due[j].req
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.ReqNo < b.ReqNo
	})
	for _, txn := range due {
		txn.lastResend = p.g.now()
		p.resends++
		resend := &types.ClientResend{Request: txn.req}
		for idx := range p.g.replicas {
			p.sendTo(idx, resend)
		}
	}
	// Leased reads that never got an answer (primary crashed or partitioned
	// mid-lease) fall back to consensus: the lease is dropped and each due
	// read re-enters as an ordinary submission, in ReadNo order for
	// determinism.
	var dueReads []uint64
	for no, lr := range p.leaseReadsOut {
		if lr.sent <= cutoff {
			dueReads = append(dueReads, no)
		}
	}
	sort.Slice(dueReads, func(i, j int) bool { return dueReads[i] < dueReads[j] })
	for _, no := range dueReads {
		lr := p.leaseReadsOut[no]
		delete(p.leaseReadsOut, no)
		p.lease.Drop(lr.epoch)
		p.leaseFalls++
		p.metrics().Counter(obs.MLeaseFallbacks).Inc()
		p.issueOp(lr.ci, lr.op, lr.sent)
	}
	p.armSweep()
}
