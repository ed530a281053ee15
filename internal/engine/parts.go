package engine

import (
	"maps"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/types"
)

// Batcher accumulates client requests at the primary and emits consensus
// batches of up to BatchSize, flushing stragglers on a timer. Flush delivery
// is through the emit callback so protocols decide what a new batch means
// (assign a sequence number, call the trusted component, ...).
type Batcher struct {
	env     Env
	size    int
	timeout time.Duration
	pending []*types.ClientRequest
	emit    func(*types.Batch)
	// gate, when non-nil, is consulted before emitting; sequential
	// protocols use it to hold batches while an instance is in flight.
	gate func() bool
}

// NewBatcher constructs a batcher; emit is invoked with each full batch.
func NewBatcher(env Env, size int, timeout time.Duration, emit func(*types.Batch)) *Batcher {
	if size <= 0 {
		size = 1
	}
	return &Batcher{env: env, size: size, timeout: timeout, emit: emit}
}

// SetGate installs an emission gate (see gate field).
func (b *Batcher) SetGate(gate func() bool) { b.gate = gate }

// Add queues one request and emits as many full batches as possible.
func (b *Batcher) Add(req *types.ClientRequest) {
	b.pending = append(b.pending, req)
	b.drain(false)
	if len(b.pending) > 0 && b.timeout > 0 {
		b.env.SetTimer(types.TimerID{Kind: types.TimerBatch}, b.timeout)
	}
}

// Kick re-attempts emission; sequential protocols call it when the in-flight
// instance completes.
func (b *Batcher) Kick() { b.drain(false) }

// OnTimer flushes a partial batch.
func (b *Batcher) OnTimer() { b.drain(true) }

// Pending returns the number of queued, unemitted requests.
func (b *Batcher) Pending() int { return len(b.pending) }

// drain emits batches while allowed. When flush is true a final partial
// batch is emitted too.
func (b *Batcher) drain(flush bool) {
	for {
		if b.gate != nil && !b.gate() {
			return
		}
		n := len(b.pending)
		if n == 0 {
			return
		}
		if n < b.size && !flush {
			return
		}
		take := b.size
		if take > n {
			take = n
		}
		reqs := make([]*types.ClientRequest, take)
		copy(reqs, b.pending[:take])
		b.pending = b.pending[take:]
		batch := &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)}
		b.emit(batch)
		if take < b.size {
			return // partial flush emitted; nothing left
		}
	}
}

// QuorumSet counts votes per (view, seq, digest), deduplicating by replica.
// It answers "how many distinct replicas support this value at this slot".
type QuorumSet struct {
	votes map[quorumKey]map[types.ReplicaID]bool
}

// quorumKey identifies one value at one slot.
type quorumKey struct {
	view   types.View
	seq    types.SeqNum
	digest types.Digest
}

// NewQuorumSet creates an empty vote tracker.
func NewQuorumSet() *QuorumSet {
	return &QuorumSet{votes: make(map[quorumKey]map[types.ReplicaID]bool)}
}

// Add records replica r's vote and returns the resulting count of distinct
// voters for that (view, seq, digest).
func (q *QuorumSet) Add(v types.View, s types.SeqNum, d types.Digest, r types.ReplicaID) int {
	k := quorumKey{v, s, d}
	set := q.votes[k]
	if set == nil {
		set = make(map[types.ReplicaID]bool)
		q.votes[k] = set
	}
	set[r] = true
	return len(set)
}

// Count returns the current number of distinct voters.
func (q *QuorumSet) Count(v types.View, s types.SeqNum, d types.Digest) int {
	return len(q.votes[quorumKey{v, s, d}])
}

// Voters returns the distinct voters for a value.
func (q *QuorumSet) Voters(v types.View, s types.SeqNum, d types.Digest) []types.ReplicaID {
	set := q.votes[quorumKey{v, s, d}]
	out := make([]types.ReplicaID, 0, len(set))
	for r := range set {
		out = append(out, r)
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
			kept := next.Requests[:0:0]
			for _, r := range next.Requests {
				if e.filter(r) {
					kept = append(kept, r)
				}
			}
			if len(kept) != len(next.Requests) {
				// Keep the original digest: the slot's identity (and the
				// state digest chain) is the proposed batch, even when
				// duplicates inside it are skipped.
				run = &types.Batch{Requests: kept, Digest: next.Digest}
			}
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
