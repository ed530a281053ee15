package crypto

import "sync"

// VerifyPool runs independent signature/attestation verifications on worker
// goroutines so the replica's single event goroutine never blocks on
// public-key crypto. Submit checks the memo first — a hit completes
// synchronously for free — and otherwise hands the check to a worker; the
// completion callback is delivered back through the deliver hook as an
// ordinary event, so protocol state is only ever touched from the event
// goroutine. Successful verifications are recorded in the memo, making
// re-proposed batches, resent votes and catch-up replays one-time costs.
type VerifyPool struct {
	deliver func(func()) // enqueue fn onto the owner's event loop
	memo    *VerifyMemo
	jobs    chan verifyJob
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type verifyJob struct {
	key   MemoKey
	check func() bool
	done  func(bool)
}

// NewVerifyPool starts workers goroutines (minimum 1) sharing memo, which the
// owner may consult too. deliver must hand its argument to the owner's event
// loop for execution; it is called from worker goroutines.
func NewVerifyPool(workers int, memo *VerifyMemo, deliver func(func())) *VerifyPool {
	if workers < 1 {
		workers = 1
	}
	p := &VerifyPool{
		deliver: deliver,
		memo:    memo,
		jobs:    make(chan verifyJob, 4*workers),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	for j := p.nextJob(); j.done != nil; j = p.nextJob() {
		ok := j.check()
		if ok {
			p.memo.Record(j.key)
		}
		done := j.done
		p.deliver(func() { done(ok) })
	}
}

func (p *VerifyPool) nextJob() verifyJob {
	j, ok := <-p.jobs
	if !ok {
		return verifyJob{}
	}
	return j
}

// Submit schedules check off-thread and arranges for done(result) to run on
// the owner's event loop. A memo hit for key — or a pool already closed —
// runs done synchronously instead; done therefore must be safe to call from
// the Submit call site as well as from a delivered event.
func (p *VerifyPool) Submit(key MemoKey, check func() bool, done func(bool)) {
	if p.memo.Seen(key) {
		done(true)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ok := check()
		if ok {
			p.memo.Record(key)
		}
		done(ok)
		return
	}
	p.jobs <- verifyJob{key: key, check: check, done: done}
	p.mu.Unlock()
}

// Close drains in-flight verifications and stops the workers. Completions
// for jobs already queued are still delivered through deliver; Submits
// arriving after Close run synchronously.
func (p *VerifyPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// Memo exposes the pool's memo cache (for metrics and direct hit checks).
func (p *VerifyPool) Memo() *VerifyMemo { return p.memo }
