package engine

import (
	"maps"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// Batcher accumulates client requests at the primary and cuts consensus
// batches of up to BatchSize. BatchTimeout bounds the age of the oldest pending
// request: the batch timer is armed once per batch, when the queue goes from
// empty to non-empty, pointed at the new oldest request when a cut leaves
// requests queued, and cancelled when a cut empties the queue. A timer that
// fires while the propose gate is shut leaves a flush due, and the next Kick
// cuts the partial batch. Two clocks cut a partial batch sooner:
//   - An eager batcher (a sequential pipeline's) cuts what queued behind an
//     instance when the instance completes.
//   - A parallel row's batcher cuts when its closed loop comes back: once
//     every request of the last batch cut has been followed by a new request
//     from the same client, nobody that batch served is still to come, and
//     the partial batch is due like a fired timer. At most one partial batch
//     goes out per Kick this way (Nagle's rule): after a partial cut, a
//     return waits for the next instance completion, so a client that
//     pipelines gets batches of about its rate times one round, not one
//     batch per request.
//
// Cuts are delivered through the emit callback so protocols decide what a new
// batch means (assign a sequence number, call the trusted component, ...).
type Batcher struct {
	env     Env
	size    int
	timeout time.Duration
	// pending[head:] is the queue, oldest first; the buffer is reused, so a
	// steady-state Add allocates nothing.
	pending []pendingRequest
	head    int
	emit    func(*types.Batch)
	// gate, when non-nil, is consulted before emitting; sequential
	// protocols use it to hold batches while an instance is in flight.
	gate func() bool
	// eager: Kick cuts a partial batch too. A sequential pipeline sets it:
	// what queued behind its one instance in flight is the next batch, and
	// holding it for the timer once that instance completes would leave the
	// pipeline idle.
	eager bool
	// armed: the batch timer is set and has not fired. due: it fired, and a
	// partial batch is cut as soon as the gate lets one out.
	armed, due bool
	// owed counts, per client, the requests of the last batch cut that no
	// later request of that client has yet followed, and owing is their sum
	// (a non-eager batcher only; the map is cleared, not dropped, at each
	// cut). back: owing reached zero, so the loop the last batch served has
	// returned. held: a partial batch went out since the last Kick, so a
	// return waits for the next one.
	owed       map[types.ClientID]int
	owing      int
	back, held bool

	wait                                    *obs.Histogram
	cutFull, cutTimer, cutIdle, cutReturned *obs.Counter
}

// pendingRequest is a queued request and when it arrived.
type pendingRequest struct {
	req *types.ClientRequest
	at  time.Duration
}

// NewBatcher constructs a batcher from cfg's BatchSize, BatchTimeout and
// Observer; emit is invoked with each batch cut.
func NewBatcher(env Env, cfg Config, emit func(*types.Batch)) *Batcher {
	m := cfg.Observer.Metrics()
	return &Batcher{
		env: env, size: max(cfg.BatchSize, 1), timeout: cfg.BatchTimeout, emit: emit,
		owed:        make(map[types.ClientID]int),
		wait:        m.Histogram(obs.MBatchWait),
		cutFull:     m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutFull)),
		cutTimer:    m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutTimer)),
		cutIdle:     m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutIdle)),
		cutReturned: m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutReturned)),
	}
}

// SetGate installs an emission gate (see gate field); eager makes Kick cut
// what is pending (see eager field).
func (b *Batcher) SetGate(gate func() bool, eager bool) { b.gate, b.eager = gate, eager }

// Add queues one request, pays back what its client owed the last batch cut,
// and cuts as many batches as allowed.
func (b *Batcher) Add(req *types.ClientRequest) {
	b.pending = append(b.pending, pendingRequest{req, b.env.Now()})
	if n := b.owed[req.Client]; n > 0 {
		b.owed[req.Client] = n - 1
		b.owing--
		b.back = b.owing == 0
	}
	b.drain(false)
	if b.Pending() > 0 && !b.armed && !b.due && b.timeout > 0 {
		b.armed = true
		b.env.SetTimer(types.TimerID{Kind: types.TimerBatch}, b.timeout)
	}
}

// Kick re-attempts emission; protocols call it when an instance completes,
// which may open the gate. An eager batcher cuts what is pending, and a return
// held back by a partial cut may now cut.
func (b *Batcher) Kick() {
	b.held = false
	b.drain(b.eager)
}

// OnTimer handles the batch timer, wherever it fires: the oldest request is
// due, and a partial batch goes out now or at the first Kick the gate allows.
func (b *Batcher) OnTimer() {
	b.armed, b.due = false, b.Pending() > 0
	b.drain(false)
}

// Reset drops every queued request, the timer state and the last batch cut:
// nothing is owed, so the next partial batch waits for its timer.
func (b *Batcher) Reset() {
	clear(b.pending)
	b.pending, b.head = b.pending[:0], 0
	b.stop()
	clear(b.owed)
	b.owing, b.back, b.held = 0, false, false
}

// Pending returns the number of queued, unemitted requests.
func (b *Batcher) Pending() int { return len(b.pending) - b.head }

// drain cuts batches while the gate allows: full ones, and a final partial
// one when a flush is due, the last batch's loop has returned unheld, or
// partial is set. A cut that leaves requests queued points the timer at the
// new oldest request: its flush is due only once it has waited BatchTimeout
// itself.
func (b *Batcher) drain(partial bool) {
	for b.Pending() > 0 && (b.gate == nil || b.gate()) {
		n := b.Pending()
		returned := b.back && !b.held
		if n < b.size && !b.due && !partial && !returned {
			break
		}
		take := min(n, b.size)
		cut := b.pending[b.head : b.head+take]
		b.wait.Observe(int64(b.env.Now() - cut[0].at))
		switch {
		case take == b.size:
			b.cutFull.Inc()
		case b.due:
			b.cutTimer.Inc()
		case returned:
			b.cutReturned.Inc()
		default:
			b.cutIdle.Inc()
		}
		reqs := make([]*types.ClientRequest, take)
		for i, p := range cut {
			reqs[i] = p.req
		}
		clear(cut)
		b.head += take
		b.due = b.Pending() > 0 && b.overdue()
		if !b.eager {
			b.owe(reqs)
		}
		b.emit(&types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)})
	}
	if b.head == 0 {
		return
	}
	n := copy(b.pending, b.pending[b.head:])
	clear(b.pending[n:])
	b.pending, b.head = b.pending[:n], 0
	switch {
	case n == 0:
		b.stop()
	case b.due:
		b.cancel()
	case b.timeout > 0:
		b.armed = true
		b.env.SetTimer(types.TimerID{Kind: types.TimerBatch}, b.timeout-(b.env.Now()-b.pending[0].at))
	}
}

// owe records what the batch just cut is owed: one later request per request
// it holds, from the same client. A partial cut holds returns until the next
// Kick.
func (b *Batcher) owe(reqs []*types.ClientRequest) {
	clear(b.owed)
	for _, r := range reqs {
		b.owed[r.Client]++
	}
	b.owing, b.back = len(reqs), false
	b.held = b.held || len(reqs) < b.size
}

// overdue reports whether the oldest queued request has waited BatchTimeout.
func (b *Batcher) overdue() bool {
	return b.timeout > 0 && b.env.Now()-b.pending[b.head].at >= b.timeout
}

// stop cancels the batch timer and any due flush: the queue is empty.
func (b *Batcher) stop() {
	b.cancel()
	b.due = false
}

// cancel stops the batch timer if it is running.
func (b *Batcher) cancel() {
	if b.armed {
		b.env.CancelTimer(types.TimerID{Kind: types.TimerBatch})
	}
	b.armed = false
}

// QuorumSet counts votes per (view, seq, digest), deduplicating by replica.
// It answers "how many distinct replicas support this value at this slot".
// Each value's voters are one bitset (groups of up to 128 replicas), so a
// vote allocates nothing once its value is known.
type QuorumSet struct {
	votes map[quorumKey]bitset
}

// quorumKey identifies one value at one slot.
type quorumKey struct {
	view   types.View
	seq    types.SeqNum
	digest types.Digest
}

// NewQuorumSet creates an empty vote tracker.
func NewQuorumSet() *QuorumSet {
	return &QuorumSet{votes: make(map[quorumKey]bitset)}
}

// Add records replica r's vote and returns the resulting count of distinct
// voters for that (view, seq, digest). A replica id outside the bitset is
// not counted.
func (q *QuorumSet) Add(v types.View, s types.SeqNum, d types.Digest, r types.ReplicaID) int {
	k := quorumKey{v, s, d}
	set := q.votes[k]
	if r >= 0 && int(r) < len(set)*64 && set.set(int(r)) {
		q.votes[k] = set
	}
	return set.count()
}

// Count returns the current number of distinct voters.
func (q *QuorumSet) Count(v types.View, s types.SeqNum, d types.Digest) int {
	set := q.votes[quorumKey{v, s, d}]
	return set.count()
}

// Voters returns the distinct voters for a value, in ascending order.
func (q *QuorumSet) Voters(v types.View, s types.SeqNum, d types.Digest) []types.ReplicaID {
	set := q.votes[quorumKey{v, s, d}]
	out := make([]types.ReplicaID, 0, set.count())
	for i := range len(set) * 64 {
		if set[i/64]&(1<<(i%64)) != 0 {
			out = append(out, types.ReplicaID(i))
		}
	}
	return out
}

// GC drops all entries at or below seq (checkpoint truncation).
func (q *QuorumSet) GC(seq types.SeqNum) {
	for k := range q.votes {
		if k.seq <= seq {
			delete(q.votes, k)
		}
	}
}

// Executor drives in-order execution: batches commit in any order but are
// applied to the state machine strictly by sequence number. After each
// execution the protocol-provided respond callback builds and sends the
// client responses.
type Executor struct {
	env      Env
	lastExec types.SeqNum
	queue    map[types.SeqNum]*types.Batch
	respond  func(seq types.SeqNum, b *types.Batch, results []types.Result)
	onExec   func(seq types.SeqNum, b *types.Batch) // optional post-exec hook
	// filter, when set, selects which requests actually execute; requests
	// it rejects (already-executed duplicates re-proposed across a view
	// change) are skipped for at-most-once semantics. All replicas share
	// deterministic history, so they filter identically and state digests
	// stay aligned.
	filter func(*types.ClientRequest) bool
}

// NewExecutor creates an executor; respond is called after each in-order
// execution.
func NewExecutor(env Env, respond func(types.SeqNum, *types.Batch, []types.Result)) *Executor {
	return &Executor{env: env, queue: make(map[types.SeqNum]*types.Batch), respond: respond}
}

// SetOnExec installs a hook invoked after every execution (checkpointing).
func (e *Executor) SetOnExec(fn func(types.SeqNum, *types.Batch)) { e.onExec = fn }

// SetFilter installs the duplicate-execution filter (see field doc).
func (e *Executor) SetFilter(fn func(*types.ClientRequest) bool) { e.filter = fn }

// LastExecuted returns the highest executed sequence number.
func (e *Executor) LastExecuted() types.SeqNum { return e.lastExec }

// SetLastExecuted fast-forwards the execution cursor (state transfer /
// new-view installation).
func (e *Executor) SetLastExecuted(s types.SeqNum) { e.lastExec = s }

// Pending returns the number of committed-but-unexecuted batches.
func (e *Executor) Pending() int { return len(e.queue) }

// HasQueued reports whether seq is committed and waiting.
func (e *Executor) HasQueued(seq types.SeqNum) bool { _, ok := e.queue[seq]; return ok }

// Commit hands the executor a committed batch for slot seq. It executes
// immediately if in order, otherwise queues until the gap fills. Duplicate
// commits for an executed or queued slot are ignored.
func (e *Executor) Commit(seq types.SeqNum, b *types.Batch) {
	if seq <= e.lastExec {
		return
	}
	if _, dup := e.queue[seq]; dup {
		return
	}
	e.queue[seq] = b
	for {
		next, ok := e.queue[e.lastExec+1]
		if !ok {
			return
		}
		delete(e.queue, e.lastExec+1)
		e.lastExec++
		run := next
		if e.filter != nil {
			run = e.filtered(next)
		}
		results := e.env.Execute(e.lastExec, run)
		if e.respond != nil {
			e.respond(e.lastExec, run, results)
		}
		if e.onExec != nil {
			e.onExec(e.lastExec, next)
		}
	}
}

// filtered returns b without the requests the filter rejects; b itself, with
// nothing allocated, when it rejects none. The result keeps b's digest: the
// slot's identity (and the state digest chain) is the proposed batch, even
// when duplicates inside it are skipped.
func (e *Executor) filtered(b *types.Batch) *types.Batch {
	for i, r := range b.Requests {
		if e.filter(r) {
			continue
		}
		kept := make([]*types.ClientRequest, i, len(b.Requests)-1)
		copy(kept, b.Requests[:i])
		for _, r := range b.Requests[i+1:] {
			if e.filter(r) {
				kept = append(kept, r)
			}
		}
		return &types.Batch{Requests: kept, Digest: b.Digest}
	}
	return b
}

// CheckpointTracker collects checkpoint votes and reports stability.
// A checkpoint is stable once quorum distinct replicas (including possibly
// ourselves) advertise the same state digest at the same sequence number.
type CheckpointTracker struct {
	quorum    int
	votes     *QuorumSet
	stableSeq types.SeqNum
	onStable  func(seq types.SeqNum)
}

// NewCheckpointTracker creates a tracker; onStable fires when a new stable
// checkpoint is established (used for log truncation).
func NewCheckpointTracker(quorum int, onStable func(types.SeqNum)) *CheckpointTracker {
	return &CheckpointTracker{quorum: quorum, votes: NewQuorumSet(), onStable: onStable}
}

// StableSeq returns the latest stable checkpoint sequence number.
func (c *CheckpointTracker) StableSeq() types.SeqNum { return c.stableSeq }

// Add records a checkpoint vote.
func (c *CheckpointTracker) Add(m *types.Checkpoint) {
	n := c.votes.Add(0, m.Seq, m.StateDigest, m.Replica)
	if n >= c.quorum && m.Seq > c.stableSeq {
		c.stableSeq = m.Seq
		c.votes.GC(m.Seq)
		if c.onStable != nil {
			c.onStable(m.Seq)
		}
	}
}

// ResponseCache remembers the last response sent per client so replicas can
// answer ClientResend messages without re-executing (at-most-once
// semantics).
type ResponseCache struct {
	// Entries are stored by value: Put runs once per result per committed
	// batch, and a pointer map would heap-allocate an entry each time.
	byClient map[types.ClientID]cachedResponse
}

// cachedResponse stores the latest response covering a client's request.
type cachedResponse struct {
	reqNo uint64
	resp  *types.Response
}

// NewResponseCache creates an empty cache.
func NewResponseCache() *ResponseCache {
	return &ResponseCache{byClient: make(map[types.ClientID]cachedResponse)}
}

// Clone returns an independent copy, for the snapshot speculative protocols
// roll back to: the cache decides which requests execute, so it is part of
// what a rollback must restore.
func (rc *ResponseCache) Clone() *ResponseCache {
	return &ResponseCache{byClient: maps.Clone(rc.byClient)}
}

// Put records resp as the reply to each covered client's request.
func (rc *ResponseCache) Put(resp *types.Response) {
	for _, res := range resp.Results {
		cur, ok := rc.byClient[res.Client]
		if !ok || res.ReqNo >= cur.reqNo {
			rc.byClient[res.Client] = cachedResponse{reqNo: res.ReqNo, resp: resp}
		}
	}
}

// Get returns the cached response for (client, reqNo), or nil.
func (rc *ResponseCache) Get(client types.ClientID, reqNo uint64) *types.Response {
	cur, ok := rc.byClient[client]
	if !ok || cur.reqNo != reqNo {
		return nil
	}
	return cur.resp
}

// Executed reports whether the client's request reqNo (or a later one) has
// already been executed here.
func (rc *ResponseCache) Executed(client types.ClientID, reqNo uint64) bool {
	cur, ok := rc.byClient[client]
	return ok && cur.reqNo >= reqNo
}
