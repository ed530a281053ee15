package engine

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// stubEnv is a minimal Env for exercising the engine parts in isolation.
type stubEnv struct {
	id    types.ReplicaID
	store *kvstore.Store
	// now is the clock; timers holds each armed timer's deadline, and
	// timersSet counts SetTimer calls.
	now       time.Duration
	timers    map[types.TimerID]time.Duration
	timersSet int
	executed  []types.SeqNum
}

func newStubEnv() *stubEnv {
	return &stubEnv{store: kvstore.New(100), timers: make(map[types.TimerID]time.Duration)}
}

func (s *stubEnv) ID() types.ReplicaID                      { return s.id }
func (s *stubEnv) Send(types.ReplicaID, types.Message)      {}
func (s *stubEnv) Broadcast(types.Message)                  {}
func (s *stubEnv) Respond(*types.Response)                  {}
func (s *stubEnv) SendClient(types.ClientID, types.Message) {}
func (s *stubEnv) SetTimer(id types.TimerID, d time.Duration) {
	s.timers[id] = s.now + d
	s.timersSet++
}
func (s *stubEnv) CancelTimer(id types.TimerID)                                 { delete(s.timers, id) }
func (s *stubEnv) Now() time.Duration                                           { return s.now }
func (s *stubEnv) Trusted() trusted.Component                                   { return nil }
func (s *stubEnv) VerifyAttestation(*types.Attestation) bool                    { return true }
func (s *stubEnv) VerifyAttestationAsync(_ *types.Attestation, done func(bool)) { done(true) }
func (s *stubEnv) Crypto() crypto.Provider                                      { return nil }
func (s *stubEnv) StateDigest() types.Digest                                    { return s.store.StateDigest() }
func (s *stubEnv) SnapshotState() any                                           { return s.store.Snapshot() }
func (s *stubEnv) RestoreState(v any)                                           { s.store.Restore(v.(*kvstore.Snapshot)) }
func (s *stubEnv) Defer(fn func())                                              { fn() }
func (s *stubEnv) Logf(string, ...any)                                          {}
func (s *stubEnv) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	s.executed = append(s.executed, seq)
	return s.store.ApplyBatch(b)
}

// req builds a test request.
func req(client types.ClientID, n uint64) *types.ClientRequest {
	return &types.ClientRequest{Client: client, ReqNo: n, Op: []byte(fmt.Sprintf("%d/%d", client, n))}
}

func TestBatcherFullBatches(t *testing.T) {
	env := newStubEnv()
	var got []*types.Batch
	b := NewBatcher(env, Config{BatchSize: 3, BatchTimeout: time.Millisecond}, func(batch *types.Batch) { got = append(got, batch) })
	for i := uint64(1); i <= 7; i++ {
		b.Add(req(1, i))
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d batches, want 2 full ones", len(got))
	}
	for _, batch := range got {
		if batch.Len() != 3 {
			t.Fatalf("batch size %d, want 3", batch.Len())
		}
		if batch.Digest != crypto.BatchDigest(batch.Requests) {
			t.Fatal("batch digest not computed over its requests")
		}
	}
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	// The flush timer was armed for the partial batch.
	if _, ok := env.timers[types.TimerID{Kind: types.TimerBatch}]; !ok {
		t.Fatal("no flush timer armed for the partial batch")
	}
	b.OnTimer()
	if len(got) != 3 || got[2].Len() != 1 {
		t.Fatalf("flush did not emit the partial batch: %d batches", len(got))
	}
}

func TestBatcherGateHoldsAndKicks(t *testing.T) {
	env := newStubEnv()
	var got []*types.Batch
	open := false
	b := NewBatcher(env, Config{BatchSize: 2}, func(batch *types.Batch) { got = append(got, batch) })
	b.SetGate(func() bool { return open }, false)
	b.Add(req(1, 1))
	b.Add(req(1, 2))
	b.Add(req(1, 3))
	if len(got) != 0 {
		t.Fatal("gate closed but batches emitted")
	}
	open = true
	b.Kick()
	if len(got) != 1 {
		t.Fatalf("after opening gate got %d batches, want 1 full", len(got))
	}
}

// advance moves the stub clock by d and fires the batch timer if it fell
// due.
func (s *stubEnv) advance(d time.Duration, b *Batcher) {
	s.now += d
	id := types.TimerID{Kind: types.TimerBatch}
	if due, armed := s.timers[id]; armed && due <= s.now {
		delete(s.timers, id)
		b.OnTimer()
	}
}

// TestBatcherBoundsOldestRequestWait: a trickle of one request per quarter
// BatchTimeout never fills a 100-request batch, and a timer re-armed by every
// request would never fire. Each batch must go out within BatchTimeout of its
// oldest request, after about four requests.
func TestBatcherBoundsOldestRequestWait(t *testing.T) {
	env := newStubEnv()
	const timeout = 2 * time.Millisecond
	arrived := map[uint64]time.Duration{}
	var cuts []time.Duration
	var sizes []int
	b := NewBatcher(env, Config{BatchSize: 100, BatchTimeout: timeout}, func(batch *types.Batch) {
		cuts = append(cuts, env.now-arrived[batch.Requests[0].ReqNo])
		sizes = append(sizes, batch.Len())
	})
	for i := uint64(1); i <= 40; i++ {
		arrived[i] = env.now
		b.Add(req(1, i))
		env.advance(timeout/4, b)
	}
	if len(cuts) < 8 {
		t.Fatalf("40 requests at a quarter timeout apart went out in %d batches %v, want one per timeout", len(cuts), sizes)
	}
	for i, wait := range cuts {
		if wait > timeout {
			t.Fatalf("batch %d (%d requests) cut %v after its oldest request, want within %v", i, sizes[i], wait, timeout)
		}
	}
}

// TestBatcherArmsOncePerBatch: the timer is set when a request joins an empty
// queue, not again for the requests that follow it into the same batch.
func TestBatcherArmsOncePerBatch(t *testing.T) {
	env := newStubEnv()
	batches := 0
	b := NewBatcher(env, Config{BatchSize: 100, BatchTimeout: 2 * time.Millisecond}, func(*types.Batch) { batches++ })
	for round := 1; round <= 3; round++ {
		for i := uint64(1); i <= 10; i++ {
			b.Add(req(types.ClientID(round), i))
		}
		env.advance(2*time.Millisecond, b)
		if batches != round || env.timersSet != round {
			t.Fatalf("round %d: %d batches, %d SetTimer calls; want one each per batch", round, batches, env.timersSet)
		}
	}
}

// TestBatcherCutThatEmptiesQueueCancelsTimer: a full batch that takes every
// pending request leaves no timer behind to flush an empty queue.
func TestBatcherCutThatEmptiesQueueCancelsTimer(t *testing.T) {
	env := newStubEnv()
	b := NewBatcher(env, Config{BatchSize: 3, BatchTimeout: time.Millisecond}, func(*types.Batch) {})
	b.Add(req(1, 1))
	b.Add(req(1, 2))
	if _, armed := env.timers[types.TimerID{Kind: types.TimerBatch}]; !armed {
		t.Fatal("no timer armed for the pending requests")
	}
	b.Add(req(1, 3))
	if _, armed := env.timers[types.TimerID{Kind: types.TimerBatch}]; armed || b.Pending() != 0 {
		t.Fatalf("after a cut that emptied the queue: timer armed %v, %d pending", armed, b.Pending())
	}
}

// TestBatcherTimerWithGateShutFlushesAtKick: a timer that fires while the
// gate is shut leaves the flush due; the Kick that finds the gate open cuts
// the partial batch without waiting for another timeout.
func TestBatcherTimerWithGateShutFlushesAtKick(t *testing.T) {
	env := newStubEnv()
	var got []*types.Batch
	open := false
	b := NewBatcher(env, Config{BatchSize: 100, BatchTimeout: time.Millisecond}, func(batch *types.Batch) { got = append(got, batch) })
	b.SetGate(func() bool { return open }, false)
	b.Add(req(1, 1))
	env.advance(time.Millisecond, b)
	if len(got) != 0 {
		t.Fatal("gate shut but a batch went out")
	}
	b.Kick()
	if len(got) != 0 {
		t.Fatal("gate still shut but a batch went out at Kick")
	}
	open = true
	b.Kick()
	if len(got) != 1 || got[0].Len() != 1 {
		t.Fatalf("Kick with the gate open emitted %d batches, want the due partial one", len(got))
	}
	// The flush is spent: the next request waits for its own timeout.
	b.Add(req(1, 2))
	if len(got) != 1 {
		t.Fatal("a fresh request went out at once after the due flush")
	}
	if _, armed := env.timers[types.TimerID{Kind: types.TimerBatch}]; !armed {
		t.Fatal("no timer armed for the fresh request")
	}
}

// TestBatcherLeftoversWaitTheirOwnTimeout: a sequential gate lets one full
// batch out and shuts, leaving younger requests queued. Their flush is due
// one BatchTimeout after the oldest of them arrived, not at the next Kick and
// not when the timer armed for the batch that already left fires.
func TestBatcherLeftoversWaitTheirOwnTimeout(t *testing.T) {
	env := newStubEnv()
	const timeout = time.Millisecond
	arrived := map[uint64]time.Duration{}
	var waits []time.Duration
	inFlight, open := false, false
	b := NewBatcher(env, Config{BatchSize: 3, BatchTimeout: timeout}, func(batch *types.Batch) {
		waits = append(waits, env.now-arrived[batch.Requests[0].ReqNo])
		inFlight = true
	})
	b.SetGate(func() bool { return open && !inFlight }, false)
	add := func(n uint64) {
		arrived[n] = env.now
		b.Add(req(1, n))
	}
	add(1)
	env.advance(timeout*9/10, b)
	for n := uint64(2); n <= 4; n++ {
		add(n)
	}
	env.advance(timeout/5, b) // the first request's timer fires, gate shut
	open = true
	b.Kick() // one full batch, and the gate shuts behind it
	if len(waits) != 1 || b.Pending() != 1 {
		t.Fatalf("%d batches out, %d pending; want the full one out and request 4 left", len(waits), b.Pending())
	}
	inFlight = false
	env.advance(timeout/10, b)
	b.Kick()
	if len(waits) != 1 {
		t.Fatalf("request 4 went out %v after it arrived, before its own timeout %v", env.now-arrived[4], timeout)
	}
	if deadline, armed := env.timers[types.TimerID{Kind: types.TimerBatch}]; !armed || deadline != arrived[4]+timeout {
		t.Fatalf("timer armed %v for %v, want for %v", armed, deadline, arrived[4]+timeout)
	}
	env.advance(arrived[4]+timeout-env.now, b)
	if len(waits) != 2 || waits[1] != timeout {
		t.Fatalf("request 4's batch: %d batches out, waits %v; want it cut at its own timeout %v", len(waits), waits, timeout)
	}
}

// TestBatcherEagerKickCutsWhatQueuedBehind: on a sequential pipeline's
// batcher, the requests that queued behind the instance in flight go out
// together at the Kick that completes it, long before their batch fills or
// their timer fires. A request that reaches an idle pipeline still waits for
// its batch to fill or its timeout.
func TestBatcherEagerKickCutsWhatQueuedBehind(t *testing.T) {
	env := newStubEnv()
	o := obs.New(obs.Config{SampleRate: -1})
	const timeout = time.Millisecond
	var got []*types.Batch
	inFlight := false
	b := NewBatcher(env, Config{BatchSize: 100, BatchTimeout: timeout, Observer: o}, func(batch *types.Batch) {
		got = append(got, batch)
		inFlight = true
	})
	b.SetGate(func() bool { return !inFlight }, true)
	b.Add(req(1, 1))
	if len(got) != 0 {
		t.Fatal("a lone request to an idle pipeline went out before its timeout")
	}
	env.advance(timeout, b)
	if len(got) != 1 || got[0].Len() != 1 {
		t.Fatalf("%d batches out after the timeout, want the lone request's", len(got))
	}
	for n := uint64(2); n <= 4; n++ {
		b.Add(req(1, n))
	}
	env.advance(timeout/10, b)
	inFlight = false
	b.Kick()
	if len(got) != 2 || got[1].Len() != 3 {
		t.Fatalf("instance completed: %d batches out, want the 3 requests that queued behind it as one", len(got))
	}
	if _, armed := env.timers[types.TimerID{Kind: types.TimerBatch}]; armed {
		t.Fatal("timer left armed after the queue emptied")
	}
	m := o.Metrics()
	if timer, idle := m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutTimer)).Value(),
		m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutIdle)).Value(); timer != 1 || idle != 1 {
		t.Fatalf("cuts timer=%d idle=%d, want 1 and 1", timer, idle)
	}
}

// TestBatcherObservesCuts: every cut records its oldest request's wait and
// its reason.
func TestBatcherObservesCuts(t *testing.T) {
	env := newStubEnv()
	o := obs.New(obs.Config{SampleRate: -1})
	b := NewBatcher(env, Config{BatchSize: 2, BatchTimeout: time.Millisecond, Observer: o}, func(*types.Batch) {})
	b.Add(req(1, 1))
	env.advance(time.Millisecond/2, b)
	b.Add(req(1, 2)) // full: the oldest waited half a timeout
	b.Add(req(1, 3))
	env.advance(time.Millisecond, b) // timer: a full timeout
	m := o.Metrics()
	if full, timer := m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutFull)).Value(),
		m.Counter(obs.ReasonLabel(obs.MBatchCuts, obs.BatchCutTimer)).Value(); full != 1 || timer != 1 {
		t.Fatalf("cuts full=%d timer=%d, want 1 and 1", full, timer)
	}
	h := m.Histogram(obs.MBatchWait)
	if h.Count() != 2 || h.Max() != int64(time.Millisecond) {
		t.Fatalf("batch wait: %d samples, max %d ns; want 2, max %d", h.Count(), h.Max(), time.Millisecond)
	}
}

// returnBed is a parallel row's batcher (not eager, gate always open) that
// records what it cut and counts its cuts by reason.
type returnBed struct {
	env *stubEnv
	b   *Batcher
	o   *obs.Observer
	got []*types.Batch
}

func newReturnBed(size int, eager bool) *returnBed {
	r := &returnBed{env: newStubEnv(), o: obs.New(obs.Config{SampleRate: -1})}
	r.b = NewBatcher(r.env, Config{BatchSize: size, BatchTimeout: time.Millisecond, Observer: r.o},
		func(batch *types.Batch) { r.got = append(r.got, batch) })
	r.b.SetGate(func() bool { return true }, eager)
	return r
}

// cuts returns the cut counter for reason.
func (r *returnBed) cuts(reason string) uint64 {
	return r.o.Metrics().Counter(obs.ReasonLabel(obs.MBatchCuts, reason)).Value()
}

// firstBatch cuts one partial batch of the given clients' requests on the
// timer and completes its instance (Kick), as a closed loop's first round.
func (r *returnBed) firstBatch(t *testing.T, clients ...types.ClientID) {
	t.Helper()
	for _, c := range clients {
		r.b.Add(req(c, 1))
	}
	r.env.advance(time.Millisecond, r.b)
	if len(r.got) != 1 || r.got[0].Len() != len(clients) {
		t.Fatalf("first round: %d batches out, want one of %d requests on the timer", len(r.got), len(clients))
	}
	r.b.Kick()
}

// TestBatcherReturnCutsOnLastSuccessor: k closed-loop clients' next batch
// goes out at the k-th client's next request, long before its timer.
func TestBatcherReturnCutsOnLastSuccessor(t *testing.T) {
	const k = 5
	r := newReturnBed(100, false)
	var clients []types.ClientID
	for c := types.ClientID(1); c <= k; c++ {
		clients = append(clients, c)
	}
	r.firstBatch(t, clients...)
	for _, c := range clients {
		if len(r.got) != 1 {
			t.Fatalf("a batch went out before client %d returned", c)
		}
		r.b.Add(req(c, 2))
	}
	if len(r.got) != 2 || r.got[1].Len() != k {
		t.Fatalf("all %d clients returned: %d batches out, want a second of %d requests", k, len(r.got), k)
	}
	if _, armed := r.env.timers[types.TimerID{Kind: types.TimerBatch}]; armed {
		t.Fatal("timer left armed after the return emptied the queue")
	}
	if returned := r.cuts(obs.BatchCutReturned); returned != 1 {
		t.Fatalf("%d cuts counted as returned, want 1", returned)
	}
}

// TestBatcherReturnCountsEachRequest: a client with two requests in the last
// batch owes two; its first successor alone does not bring the loop back.
func TestBatcherReturnCountsEachRequest(t *testing.T) {
	r := newReturnBed(100, false)
	r.b.Add(req(1, 1))
	r.b.Add(req(1, 2))
	r.b.Add(req(2, 1))
	r.env.advance(time.Millisecond, r.b)
	r.b.Kick()
	r.b.Add(req(2, 2))
	r.b.Add(req(1, 3))
	if len(r.got) != 1 {
		t.Fatal("cut with one of client 1's two requests still owed")
	}
	r.b.Add(req(1, 4))
	if len(r.got) != 2 || r.got[1].Len() != 3 {
		t.Fatalf("%d batches out, want a second of 3 requests once client 1 paid both back", len(r.got))
	}
}

// TestBatcherNoReturnLeavesTheTimer: a client of the last batch that never
// comes back leaves the partial batch to the timer.
func TestBatcherNoReturnLeavesTheTimer(t *testing.T) {
	r := newReturnBed(100, false)
	r.firstBatch(t, 1, 2)
	r.b.Add(req(1, 2))
	r.b.Add(req(3, 1)) // a client the last batch did not serve pays nothing
	r.env.advance(time.Millisecond/2, r.b)
	if len(r.got) != 1 {
		t.Fatal("cut although client 2 never returned")
	}
	r.env.advance(time.Millisecond/2, r.b)
	if len(r.got) != 2 || r.got[1].Len() != 2 || r.cuts(obs.BatchCutTimer) != 2 || r.cuts(obs.BatchCutReturned) != 0 {
		t.Fatalf("%d batches out, timer cuts %d, returned cuts %d; want the 2 requests on the timer",
			len(r.got), r.cuts(obs.BatchCutTimer), r.cuts(obs.BatchCutReturned))
	}
}

// TestBatcherEagerIgnoresReturns: a sequential pipeline's batcher is clocked
// by its instance completions; a return does not cut.
func TestBatcherEagerIgnoresReturns(t *testing.T) {
	r := newReturnBed(100, true)
	r.firstBatch(t, 1, 2)
	r.b.Add(req(1, 2))
	r.b.Add(req(2, 2))
	if len(r.got) != 1 || r.cuts(obs.BatchCutReturned) != 0 {
		t.Fatalf("%d batches out on an eager batcher's return, want 1", len(r.got))
	}
}

// TestBatcherResetForgetsTheLastBatch: after a Reset (a view change), no
// request is owed, so the new view's first requests wait for the timer.
func TestBatcherResetForgetsTheLastBatch(t *testing.T) {
	r := newReturnBed(100, false)
	r.firstBatch(t, 1, 2)
	r.b.Reset()
	r.b.Add(req(1, 2))
	r.b.Add(req(2, 2))
	if len(r.got) != 1 {
		t.Fatal("the last batch before a Reset cut on its return")
	}
	if _, armed := r.env.timers[types.TimerID{Kind: types.TimerBatch}]; !armed {
		t.Fatal("no timer armed for the new view's requests")
	}
}

// TestBatcherLoneClientOnePartialPerKick: a lone client that sends 50
// requests back to back returns at once after every cut, yet gets at most one
// partial batch per Kick (Nagle's rule), not one batch per request.
func TestBatcherLoneClientOnePartialPerKick(t *testing.T) {
	r := newReturnBed(100, false)
	r.firstBatch(t, 1)
	kicks := 1 // firstBatch's
	for n := uint64(2); n <= 51; n++ {
		r.b.Add(req(1, n))
		if n%10 == 0 {
			r.b.Kick()
			kicks++
		}
	}
	if partials := len(r.got) - 1; partials > kicks {
		t.Fatalf("%d partial batches for %d Kicks, want at most one per Kick", partials, kicks)
	}
	if r.cuts(obs.BatchCutReturned) == 0 {
		t.Fatal("no batch went out on the client's return")
	}
}

// TestBatcherAddAllocatesNothing: in steady state Add only queues into the
// reused buffer; the cut's batch is what allocates.
func TestBatcherAddAllocatesNothing(t *testing.T) {
	env := newStubEnv()
	b := NewBatcher(env, Config{BatchSize: 1000, BatchTimeout: time.Millisecond}, func(*types.Batch) {})
	r := req(1, 1)
	for range 1000 { // grow the buffer to a full batch, then cut it
		b.Add(r)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Add(r) }); allocs != 0 {
		t.Fatalf("Add allocates %v times, want 0", allocs)
	}
}

// TestQuorumSetAddAllocatesNothing: once a value has a vote, further votes
// for it allocate nothing.
func TestQuorumSetAddAllocatesNothing(t *testing.T) {
	q := NewQuorumSet()
	d := types.Digest{1}
	q.Add(0, 1, d, 0)
	r := types.ReplicaID(0)
	if allocs := testing.AllocsPerRun(100, func() { r = (r + 1) % 4; q.Add(0, 1, d, r) }); allocs != 0 {
		t.Fatalf("Add allocates %v times, want 0", allocs)
	}
	if got := q.Count(0, 1, d); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

// TestExecutorFilterAllocatesNothingWithoutDuplicates: a batch none of whose
// requests the filter rejects runs as proposed.
func TestExecutorFilterAllocatesNothingWithoutDuplicates(t *testing.T) {
	ex := NewExecutor(newStubEnv(), nil)
	ex.SetFilter(func(*types.ClientRequest) bool { return true })
	batch := &types.Batch{Requests: []*types.ClientRequest{req(1, 1), req(2, 1), req(3, 1)}}
	if allocs := testing.AllocsPerRun(100, func() { ex.filtered(batch) }); allocs != 0 {
		t.Fatalf("filter allocates %v times without duplicates, want 0", allocs)
	}
	ex.SetFilter(func(r *types.ClientRequest) bool { return r.Client != 2 })
	got := ex.filtered(batch)
	if got.Len() != 2 || got.Requests[0].Client != 1 || got.Requests[1].Client != 3 || got.Digest != batch.Digest {
		t.Fatalf("filtered batch %v, want clients 1 and 3 under the proposed digest", got.Requests)
	}
}

func TestQuorumSetDedupAndGC(t *testing.T) {
	q := NewQuorumSet()
	d := types.Digest{1}
	if got := q.Add(0, 5, d, 1); got != 1 {
		t.Fatalf("first vote count = %d", got)
	}
	if got := q.Add(0, 5, d, 1); got != 1 {
		t.Fatalf("duplicate vote counted: %d", got)
	}
	q.Add(0, 5, d, 2)
	if got := q.Count(0, 5, d); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// Different digest and view tally separately.
	if got := q.Add(0, 5, types.Digest{2}, 3); got != 1 {
		t.Fatalf("conflicting digest shares tally: %d", got)
	}
	if got := q.Add(1, 5, d, 1); got != 1 {
		t.Fatalf("different view shares tally: %d", got)
	}
	q.GC(5)
	if got := q.Count(0, 5, d); got != 0 {
		t.Fatalf("GC left %d votes", got)
	}
}

func TestExecutorInOrder(t *testing.T) {
	env := newStubEnv()
	var responded []types.SeqNum
	ex := NewExecutor(env, func(seq types.SeqNum, _ *types.Batch, _ []types.Result) {
		responded = append(responded, seq)
	})
	mk := func(n uint64) *types.Batch {
		reqs := []*types.ClientRequest{req(1, n)}
		return &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)}
	}
	ex.Commit(3, mk(3))
	ex.Commit(2, mk(2))
	if len(env.executed) != 0 {
		t.Fatal("executed despite the gap at seq 1")
	}
	ex.Commit(1, mk(1))
	want := []types.SeqNum{1, 2, 3}
	if len(env.executed) != 3 {
		t.Fatalf("executed %v, want %v", env.executed, want)
	}
	for i, s := range env.executed {
		if s != want[i] {
			t.Fatalf("executed %v, want %v", env.executed, want)
		}
	}
	// Duplicates and old slots are ignored.
	ex.Commit(2, mk(2))
	if len(env.executed) != 3 {
		t.Fatal("re-executed an old slot")
	}
	if ex.LastExecuted() != 3 || ex.Pending() != 0 {
		t.Fatalf("cursor = %d pending = %d", ex.LastExecuted(), ex.Pending())
	}
}

func TestExecutorDuplicateFilter(t *testing.T) {
	env := newStubEnv()
	executedReqs := 0
	ex := NewExecutor(env, func(_ types.SeqNum, b *types.Batch, _ []types.Result) {
		executedReqs += len(b.Requests)
	})
	seen := make(map[types.RequestKey]bool)
	ex.SetFilter(func(r *types.ClientRequest) bool {
		if seen[r.Key()] {
			return false
		}
		seen[r.Key()] = true
		return true
	})
	r := req(1, 1)
	b1 := &types.Batch{Requests: []*types.ClientRequest{r}, Digest: types.Digest{1}}
	b2 := &types.Batch{Requests: []*types.ClientRequest{r}, Digest: types.Digest{2}} // re-proposal
	ex.Commit(1, b1)
	ex.Commit(2, b2)
	if executedReqs != 1 {
		t.Fatalf("executed the same request %d times, want 1", executedReqs)
	}
}

// Property: however commits arrive (any permutation), execution is the
// contiguous ascending prefix — the RSM safety backbone.
func TestExecutorOrderProperty(t *testing.T) {
	prop := func(perm []uint8) bool {
		env := newStubEnv()
		ex := NewExecutor(env, nil)
		delivered := make(map[types.SeqNum]bool)
		for _, p := range perm {
			seq := types.SeqNum(p%20) + 1
			if delivered[seq] {
				continue
			}
			delivered[seq] = true
			reqs := []*types.ClientRequest{req(1, uint64(seq))}
			ex.Commit(seq, &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)})
		}
		// Check executed = 1..k contiguous and sorted.
		for i, s := range env.executed {
			if s != types.SeqNum(i+1) {
				return false
			}
		}
		// Everything up to the first gap must have executed.
		next := types.SeqNum(1)
		for delivered[next] {
			next++
		}
		return ex.LastExecuted() == next-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTrackerStability(t *testing.T) {
	var stable []types.SeqNum
	ct := NewCheckpointTracker(3, func(s types.SeqNum) { stable = append(stable, s) })
	d := types.Digest{7}
	ct.Add(&types.Checkpoint{Replica: 0, Seq: 10, StateDigest: d})
	ct.Add(&types.Checkpoint{Replica: 1, Seq: 10, StateDigest: d})
	if len(stable) != 0 {
		t.Fatal("stable below quorum")
	}
	// A mismatched digest does not count toward the quorum.
	ct.Add(&types.Checkpoint{Replica: 2, Seq: 10, StateDigest: types.Digest{9}})
	if len(stable) != 0 {
		t.Fatal("conflicting digest counted")
	}
	ct.Add(&types.Checkpoint{Replica: 3, Seq: 10, StateDigest: d})
	if len(stable) != 1 || stable[0] != 10 || ct.StableSeq() != 10 {
		t.Fatalf("stable = %v", stable)
	}
	// Older checkpoints can no longer regress stability.
	ct.Add(&types.Checkpoint{Replica: 0, Seq: 5, StateDigest: d})
	ct.Add(&types.Checkpoint{Replica: 1, Seq: 5, StateDigest: d})
	ct.Add(&types.Checkpoint{Replica: 2, Seq: 5, StateDigest: d})
	if ct.StableSeq() != 10 {
		t.Fatalf("stability regressed to %d", ct.StableSeq())
	}
}

func TestResponseCache(t *testing.T) {
	rc := NewResponseCache()
	resp := &types.Response{Seq: 4, Results: []types.Result{
		{Client: 1, ReqNo: 2, Value: []byte("a")},
		{Client: 2, ReqNo: 7, Value: []byte("b")},
	}}
	rc.Put(resp)
	if !rc.Executed(1, 2) || !rc.Executed(2, 7) {
		t.Fatal("cached requests not reported executed")
	}
	if !rc.Executed(1, 1) {
		t.Fatal("older request should count as executed (monotonic reqNos)")
	}
	if rc.Executed(1, 3) {
		t.Fatal("future request reported executed")
	}
	if rc.Get(1, 2) != resp || rc.Get(2, 7) != resp {
		t.Fatal("cached response not returned")
	}
	if rc.Get(1, 1) != nil {
		t.Fatal("stale response returned for older reqNo")
	}
}

func TestConfigQuorums(t *testing.T) {
	cfg := DefaultConfig(25, 8)
	if cfg.VoteQuorum2f1() != 17 || cfg.VoteQuorumF1() != 9 {
		t.Fatalf("quorums = %d/%d", cfg.VoteQuorum2f1(), cfg.VoteQuorumF1())
	}
}
