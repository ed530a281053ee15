package engine

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"time"

	"flexitrust/internal/types"
)

// CertTimeout is how long a client whose fast path needs every replica waits,
// from a batch's first response, before it falls back to the
// commit-certificate slow path.
const CertTimeout = 10 * time.Millisecond

// ReplyRule is a client's completion rule for one protocol at one group size;
// Replies derives it.
type ReplyRule struct {
	// Fast is the matching-response quorum that completes a request: f+1 for
	// PBFT, MinBFT and Flexi-BFT, 2f+1 for Flexi-ZZ, all n for Zyzzyva and
	// MinZZ.
	Fast int
	// Slow, when non-zero, arms the slow path: once CertTimeout has passed
	// without Fast matching responses, Slow of them are enough to broadcast
	// a CommitCert, and CertAck LocalCommits for it complete the batch.
	Slow, CertAck int
	CertTimeout   time.Duration
}

// Replies derives the reply rule from the group size n, the fault threshold f
// and the protocol's fast quorum (Meta.ClientReplies; f+1 when not positive).
// A fast path that needs every replica is one crash away from never forming,
// so it falls back to an n−f commit certificate after CertTimeout.
func Replies(n, f, fast int) ReplyRule {
	if fast <= 0 {
		fast = f + 1
	}
	r := ReplyRule{Fast: fast}
	if fast == n {
		r.Slow, r.CertAck, r.CertTimeout = n-f, n-f, CertTimeout
	}
	return r
}

// ClientSubstrate is what a ClientCore needs from the machinery that runs its
// client. The core calls it under whatever lock guards the core.
type ClientSubstrate interface {
	Now() time.Duration
	// Send transmits a fresh request to the believed primary.
	Send(to types.ReplicaID, m types.Message)
	// Broadcast transmits m to every replica.
	Broadcast(m types.Message)
	// SetTimer arms, or re-arms, timer id to call ClientCore.OnTimer(id)
	// after d.
	SetTimer(id types.TimerID, d time.Duration)
	// Complete hands over a finished request: its result value (owned by the
	// response it arrived in; copy what you keep), and the sequence number
	// and view the quorum executed it at.
	Complete(req *types.ClientRequest, value []byte, seq types.SeqNum, view types.View)
}

// ClientCore is the client's request state machine, the same on every
// substrate: the outstanding requests, the tally of matching responses, the
// commit-certificate slow path, the resend backoff, and the believed view,
// primary and commit watermark, which only move forward. runtime.Client and
// the simulator's client pool each drive one as its ClientSubstrate. It is
// not safe for concurrent use.
type ClientCore struct {
	sub   ClientSubstrate
	id    types.ClientID
	n     int
	rule  ReplyRule
	retry time.Duration

	reqs map[types.RequestKey]pending
	seqs map[types.SeqNum]*seqTally

	view      types.View
	primary   types.ReplicaID
	watermark types.SeqNum
	retryAt   time.Duration // when the resend timer fires; 0 when unarmed

	resends, certs uint64
}

// pending is one outstanding request and its place in the resend backoff.
type pending struct {
	req       *types.ClientRequest
	wait, due time.Duration // the current gap, and when the next resend goes
}

// seqTally is what the client saw for one sequence number: each distinct
// response, the first of its kind standing for all, with the replicas that
// sent it and that acknowledged its certificate.
type seqTally struct {
	tallies []tally
	cert    int // the tally the certificate went out for; -1 before
}

type tally struct {
	ex             *types.Response
	replicas, acks bitset
}

// bitset holds one bit per replica, for groups of up to 128.
type bitset [2]uint64

// set marks bit i and reports whether it was newly set.
func (b *bitset) set(i int) bool {
	old := b[i/64]
	b[i/64] |= 1 << (i % 64)
	return b[i/64] != old
}

func (b *bitset) count() int { return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1]) }

// NewClientCore builds the core of client id for an n-replica group with
// fault threshold f (n ≤ 128) and fast quorum fast (see Replies). An
// unresolved request is re-broadcast after retry/8, the gap doubling up to
// retry; retry ≤ 0 never re-broadcasts.
func NewClientCore(sub ClientSubstrate, id types.ClientID, n, f, fast int, retry time.Duration) *ClientCore {
	return &ClientCore{sub: sub, id: id, n: n, rule: Replies(n, f, fast), retry: retry,
		reqs: make(map[types.RequestKey]pending), seqs: make(map[types.SeqNum]*seqTally)}
}

// Primary is the replica the client believes leads the group, View the
// highest view a reply quorum executed in, and Watermark the highest sequence
// number one committed.
func (c *ClientCore) Primary() types.ReplicaID { return c.primary }
func (c *ClientCore) View() types.View         { return c.view }
func (c *ClientCore) Watermark() types.SeqNum  { return c.watermark }

// Resends counts re-broadcast requests and CertsSent commit certificates.
func (c *ClientCore) Resends() uint64   { return c.resends }
func (c *ClientCore) CertsSent() uint64 { return c.certs }

// Cancel stops tracking a request its caller gave up on.
func (c *ClientCore) Cancel(k types.RequestKey) { delete(c.reqs, k) }

// Submit sends req to the believed primary and tracks it until a reply
// quorum completes it or Cancel drops it.
func (c *ClientCore) Submit(req *types.ClientRequest) {
	wait := max(c.retry/8, 1)
	due := c.sub.Now() + wait
	c.reqs[req.Key()] = pending{req: req, wait: wait, due: due}
	c.armRetry(due)
	c.sub.Send(c.primary, req)
}

// OnMessage takes replica from's Response or LocalCommit.
func (c *ClientCore) OnMessage(from types.ReplicaID, m types.Message) {
	if from < 0 || int(from) >= c.n {
		return
	}
	switch m := m.(type) {
	case *types.Response:
		c.onResponse(from, m)
	case *types.LocalCommit:
		c.onLocalCommit(from, m)
	}
}

// onResponse counts a response. One that covers no outstanding request, or
// repeats what the replica already sent, counts for nothing.
func (c *ClientCore) onResponse(from types.ReplicaID, r *types.Response) {
	st := c.seqs[r.Seq]
	if st == nil {
		if !slices.ContainsFunc(r.Results, func(x types.Result) bool {
			_, ok := c.reqs[types.RequestKey{Client: x.Client, ReqNo: x.ReqNo}]
			return ok
		}) {
			return
		}
		st = &seqTally{cert: -1}
		c.seqs[r.Seq] = st
		if c.rule.Slow > 0 {
			c.sub.SetTimer(types.TimerID{Kind: types.TimerCommitCert, Seq: r.Seq}, c.rule.CertTimeout)
		}
	}
	i := slices.IndexFunc(st.tallies, func(t tally) bool { return matching(t.ex, r) })
	if i < 0 {
		i = len(st.tallies)
		st.tallies = append(st.tallies, tally{ex: r})
	}
	if t := &st.tallies[i]; t.replicas.set(int(from)) && t.replicas.count() >= c.rule.Fast {
		c.complete(r.Seq, t.ex)
	}
}

// onLocalCommit counts an acknowledgement of the certificate the client sent
// for lc.Seq; one for any other batch counts for nothing.
func (c *ClientCore) onLocalCommit(from types.ReplicaID, lc *types.LocalCommit) {
	st := c.seqs[lc.Seq]
	if st == nil || st.cert < 0 {
		return
	}
	t := &st.tallies[st.cert]
	if t.ex.Digest == lc.Digest && t.acks.set(int(from)) && t.acks.count() >= c.rule.CertAck {
		c.complete(lc.Seq, t.ex)
	}
}

// OnTimer handles a timer the core armed through SetTimer.
func (c *ClientCore) OnTimer(id types.TimerID) {
	switch id.Kind {
	case types.TimerClientRetry:
		c.resend()
	case types.TimerCommitCert:
		c.certify(id.Seq)
	}
}

// matching reports whether two responses agree on everything a client relies
// on: view, sequence number, batch digest, history and every result.
func matching(a, b *types.Response) bool {
	return a.View == b.View && a.Seq == b.Seq && a.Digest == b.Digest && a.History == b.History &&
		slices.EqualFunc(a.Results, b.Results, func(x, y types.Result) bool {
			return x.Client == y.Client && x.ReqNo == y.ReqNo && bytes.Equal(x.Value, y.Value)
		})
}

// complete finishes every outstanding request ex covers. A late quorum from
// an older view completes its requests but says nothing about who leads now.
func (c *ClientCore) complete(seq types.SeqNum, ex *types.Response) {
	delete(c.seqs, seq)
	c.watermark = max(c.watermark, seq)
	if ex.View > c.view {
		c.view, c.primary = ex.View, types.Primary(ex.View, c.n)
	}
	for _, r := range ex.Results {
		key := types.RequestKey{Client: r.Client, ReqNo: r.ReqNo}
		if p, ok := c.reqs[key]; ok {
			delete(c.reqs, key)
			c.sub.Complete(p.req, r.Value, seq, ex.View)
		}
	}
	if len(c.reqs) == 0 {
		clear(c.seqs) // tallies of cancelled requests and superseded slots
	}
}

// certify runs the slow path for a batch whose fast quorum did not form in
// time: with Slow matching responses, broadcast one certificate for the
// best-supported response; with fewer, look again after CertTimeout.
func (c *ClientCore) certify(seq types.SeqNum) {
	st := c.seqs[seq]
	if st == nil || st.cert >= 0 {
		return
	}
	best, votes := -1, 0
	for i := range st.tallies {
		if n := st.tallies[i].replicas.count(); n > votes {
			best, votes = i, n
		}
	}
	if votes < c.rule.Slow {
		c.sub.SetTimer(types.TimerID{Kind: types.TimerCommitCert, Seq: seq}, c.rule.CertTimeout)
		return
	}
	st.cert = best
	c.certs++
	ex := st.tallies[best].ex
	c.sub.Broadcast(&types.CommitCert{Client: c.id, View: ex.View, Seq: seq, Digest: ex.Digest, History: ex.History})
}

// armRetry makes sure the resend timer fires by at.
func (c *ClientCore) armRetry(at time.Duration) {
	if c.retry > 0 && (c.retryAt == 0 || at < c.retryAt) {
		c.retryAt = at
		c.sub.SetTimer(types.TimerID{Kind: types.TimerClientRetry}, at-c.sub.Now())
	}
}

// resend complains to every replica about each request whose deadline has
// passed, in (client, request number) order so that a simulated run stays
// deterministic, and backs its next deadline off.
func (c *ClientCore) resend() {
	now, next := c.sub.Now(), time.Duration(0)
	var due []*types.ClientRequest
	for key, p := range c.reqs {
		if p.due <= now {
			p.wait = min(2*p.wait, c.retry)
			p.due = now + p.wait
			c.reqs[key] = p
			due = append(due, p.req)
		}
		if next == 0 || p.due < next {
			next = p.due
		}
	}
	slices.SortFunc(due, func(a, b *types.ClientRequest) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.ReqNo, b.ReqNo))
	})
	for _, req := range due {
		c.resends++
		c.sub.Broadcast(&types.ClientResend{Request: req})
	}
	c.retryAt = 0
	if next != 0 {
		c.armRetry(next)
	}
}
