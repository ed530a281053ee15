package runtime

import (
	"context"
	"fmt"
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// ClientConfig parameterizes the client library.
type ClientConfig struct {
	ID        types.ClientID
	N, F      int
	Transport transport.Transport
	Keyring   *crypto.Keyring
	// Replies is the protocol's fast matching-response quorum (f+1 for
	// PBFT/MinBFT/Flexi-BFT, 2f+1 for Flexi-ZZ, n for Zyzzyva/MinZZ; f+1
	// when unset). The slow path follows from it (engine.Replies).
	Replies int
	// RetryEvery is the ceiling of the backed-off re-broadcast of an
	// unresolved request to all replicas — the paper's client complaint
	// path. The first resend goes out after RetryEvery/8 and the interval
	// doubles up to RetryEvery (default 1s: 125, 375, 875, 1875 ms after the
	// send, then every second).
	RetryEvery time.Duration
}

// Client is the Rsm client library: it authenticates each transaction to
// every replica (one crypto.ClientAuthenticator vector per request), submits
// it and blocks the caller until the engine.ClientCore it drives (tally, slow
// path, resend backoff) completes the request.
type Client struct {
	cfg   ClientConfig
	start time.Time
	// auth computes request authenticators (under mu); nil, with authErr
	// saying why, when the keyring has no keys for cfg.ID.
	auth    *crypto.ClientAuthenticator
	authErr error
	mu      sync.Mutex
	core    *engine.ClientCore
	// out holds what the core sent under mu, to go out once mu is released
	// (a TCP send may block); retry is the core's resend timer.
	out     []clientSend
	retry   *time.Timer
	nextReq uint64
	// submitting is the request Submit is handing the core.
	submitting *submission
	// waiting is where each Submit blocks, by request number; freeWaits
	// holds the channels of Submits that received their outcome, for reuse.
	waiting   map[uint64]chan outcome
	freeWaits []chan outcome
	// Lease-read state: outstanding single-reply exchanges by ReadNo, and
	// the rendezvous of finished ones kept for reuse.
	nextRead     uint64
	leasePending map[uint64]*leaseCall
	freeCalls    []*leaseCall
}

// clientSend is one message the core sent (in env, if it has one yet): to
// one replica, or to all (-1).
type clientSend struct {
	to  types.ReplicaID
	m   types.Message
	env *wire.Envelope
}

// submission is a request, the envelope it first travels in and room for
// a four-replica group's authenticator vector (a larger group's is
// allocated), laid out together: one allocation per Submit.
type submission struct {
	env wire.Envelope
	req types.ClientRequest
	sig [4 * crypto.AuthEntryLen]byte
}

// leaseCall is where one LeaseRead waits: the reply channel and the timeout
// timer, recycled from read to read so the fast path allocates neither.
type leaseCall struct {
	ch    chan *types.LeaseReadReply
	timer *time.Timer
}

// leaseReadReq is a LeaseRead and the envelope it travels in: one allocation.
type leaseReadReq struct {
	env wire.Envelope
	msg types.LeaseRead
}

// outcome is a resolved transaction: its result value, the consensus
// sequence number the quorum committed it at (sharding watermarks need
// it), and the view it executed in (request traces annotate it).
type outcome struct {
	value []byte
	seq   types.SeqNum
	view  types.View
}

// NewClient builds a client on its transport endpoint. Its reply rule is
// engine.Replies(N, F, Replies): a fast quorum of all N falls back to an N−F
// commit certificate.
func NewClient(cfg ClientConfig) *Client {
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	c := &Client{cfg: cfg, start: time.Now(),
		waiting:      make(map[uint64]chan outcome),
		leasePending: make(map[uint64]*leaseCall)}
	c.auth, c.authErr = cfg.Keyring.ClientAuthenticator(cfg.ID)
	c.core = engine.NewClientCore(clientSub{c}, cfg.ID, cfg.N, cfg.F, cfg.Replies, cfg.RetryEvery)
	cfg.Transport.SetHandler(c.onEnvelope)
	return c
}

// LeaseRead asks replica `to` (the believed lease-holding primary) to answer
// a single-key read locally, without consensus. fence is the highest
// committed sequence number the caller has observed for the group; the
// primary must answer at or above it. The caller decides whether the reply
// is usable (status, epoch, watermark checks) — a nil error only means a
// reply arrived within timeout.
func (c *Client) LeaseRead(ctx context.Context, to types.ReplicaID, key uint64, fence types.SeqNum,
	timeout time.Duration) (*types.LeaseReadReply, error) {
	c.mu.Lock()
	c.nextRead++
	readNo := c.nextRead
	var call *leaseCall
	if last := len(c.freeCalls) - 1; last >= 0 {
		call, c.freeCalls = c.freeCalls[last], c.freeCalls[:last]
		call.timer.Reset(timeout)
	} else {
		call = &leaseCall{ch: make(chan *types.LeaseReadReply, 1), timer: time.NewTimer(timeout)}
	}
	c.leasePending[readNo] = call
	c.mu.Unlock()

	req := &leaseReadReq{msg: types.LeaseRead{Client: c.cfg.ID, ReadNo: readNo, Key: key, Fence: fence}}
	req.env.Client, req.env.IsClient, req.env.Msg = c.cfg.ID, true, &req.msg
	c.cfg.Transport.Send(transport.ReplicaAddr(int32(to)), &req.env)

	var reply *types.LeaseReadReply
	var err error
	select {
	case reply = <-call.ch:
	case <-call.timer.C:
		err = fmt.Errorf("client %d lease read %d: no reply in %v", c.cfg.ID, readNo, timeout)
	case <-ctx.Done():
		err = fmt.Errorf("client %d lease read %d: %w", c.cfg.ID, readNo, ctx.Err())
	}
	call.timer.Stop()
	c.mu.Lock()
	delete(c.leasePending, readNo)
	// Replies are handed over under c.mu, so none can arrive once the entry
	// is gone; one that raced the timeout is discarded here.
	select {
	case <-call.ch:
	default:
	}
	c.freeCalls = append(c.freeCalls, call)
	c.mu.Unlock()
	return reply, err
}

// Submit executes op through the replicated service and returns its result.
func (c *Client) Submit(ctx context.Context, op []byte) ([]byte, error) {
	res, _, err := c.SubmitSeq(ctx, op)
	return res, err
}

// SubmitSeq executes op and additionally returns the consensus sequence
// number the reply quorum committed it at. Sharded deployments use it to
// maintain per-shard commit watermarks.
func (c *Client) SubmitSeq(ctx context.Context, op []byte) ([]byte, types.SeqNum, error) {
	res, seq, _, err := c.SubmitObserved(ctx, op)
	return res, seq, err
}

// SubmitObserved executes op and returns, beyond SubmitSeq, the view the
// reply quorum executed it in — the "view at execution" a request trace
// records. A client whose id has no keys fails at once: every replica would
// drop its requests.
func (c *Client) SubmitObserved(ctx context.Context, op []byte) ([]byte, types.SeqNum, types.View, error) {
	if c.auth == nil {
		return nil, 0, 0, fmt.Errorf("client %d: %w", c.cfg.ID, c.authErr)
	}
	c.mu.Lock()
	c.nextReq++
	sub := &submission{req: types.ClientRequest{
		Client:    c.cfg.ID,
		ReqNo:     c.nextReq,
		Op:        op,
		Timestamp: time.Now().UnixNano(),
	}}
	req := &sub.req
	sub.env.Client, sub.env.IsClient, sub.env.Msg = c.cfg.ID, true, req
	req.Sig = c.auth.AppendAuthenticator(sub.sig[:0], crypto.RequestDigest(req))
	var done chan outcome
	if last := len(c.freeWaits) - 1; last >= 0 {
		done, c.freeWaits = c.freeWaits[last], c.freeWaits[:last]
	} else {
		done = make(chan outcome, 1)
	}
	c.waiting[req.ReqNo] = done
	c.submitting = sub
	c.core.Submit(req)
	c.submitting = nil
	c.unlockAndSend()

	select {
	case res := <-done:
		// Drained, and out of waiting since Complete, so reusable; a
		// cancelled Submit's channel may still get its outcome, so is not.
		c.mu.Lock()
		c.freeWaits = append(c.freeWaits, done)
		c.mu.Unlock()
		return res.value, res.seq, res.view, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.core.Cancel(req.Key())
		delete(c.waiting, req.ReqNo)
		c.mu.Unlock()
		return nil, 0, 0, fmt.Errorf("client %d request %d: %w", c.cfg.ID, req.ReqNo, ctx.Err())
	}
}

// onEnvelope hands a lease-read reply to its waiting reader and everything
// else to the core.
func (c *Client) onEnvelope(env *wire.Envelope) {
	switch m := env.Msg.(type) {
	case *types.LeaseReadReply:
		c.mu.Lock()
		if call := c.leasePending[m.ReadNo]; call != nil {
			select {
			case call.ch <- m:
			default: // a second reply to the same read
			}
		}
		c.mu.Unlock()
	default:
		c.mu.Lock()
		c.core.OnMessage(env.From, m)
		c.mu.Unlock() // the core sends nothing on a reply
	}
}

// unlockAndSend releases c.mu, then transmits what the core sent while it was
// held. Each caller takes its own span of the shared buffer, so sends need no
// allocation of their own.
func (c *Client) unlockAndSend() {
	out := c.out
	c.out = c.out[len(c.out):]
	c.mu.Unlock()
	for _, s := range out {
		env := s.env
		if env == nil {
			env = &wire.Envelope{Client: c.cfg.ID, IsClient: true, Msg: s.m}
		}
		for i := 0; i < c.cfg.N; i++ {
			if s.to < 0 || types.ReplicaID(i) == s.to {
				c.cfg.Transport.Send(transport.ReplicaAddr(int32(i)), env)
			}
		}
	}
}

// clientSub is the Client as the core's engine.ClientSubstrate; the core
// calls it with mu held.
type clientSub struct{ *Client }

// Now implements engine.ClientSubstrate.
func (s clientSub) Now() time.Duration { return time.Since(s.start) }

// Send implements engine.ClientSubstrate. The request being submitted goes
// in the envelope allocated with it.
func (s clientSub) Send(to types.ReplicaID, m types.Message) {
	out := clientSend{to: to, m: m}
	if sub := s.submitting; sub != nil && m == &sub.req {
		out.env = &sub.env
	}
	s.queue(out)
}

// Broadcast implements engine.ClientSubstrate.
func (s clientSub) Broadcast(m types.Message) { s.queue(clientSend{to: -1, m: m}) }

// queue appends to the send buffer, carving a fresh block when it is full.
func (s clientSub) queue(m clientSend) {
	if len(s.out) == cap(s.out) {
		s.out = append(make([]clientSend, 0, len(s.out)+64), s.out...)
	}
	s.out = append(s.out, m)
}

// SetTimer implements engine.ClientSubstrate. The resend timer is one,
// re-armed; a batch's certificate timer is armed again only once it fired.
func (s clientSub) SetTimer(id types.TimerID, d time.Duration) {
	if id.Kind == types.TimerClientRetry && s.retry != nil {
		s.retry.Reset(d)
		return
	}
	t := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.core.OnTimer(id)
		s.unlockAndSend()
	})
	if id.Kind == types.TimerClientRetry {
		s.retry = t
	}
}

// Complete implements engine.ClientSubstrate: the request's caller wakes.
func (s clientSub) Complete(req *types.ClientRequest, value []byte, seq types.SeqNum, view types.View) {
	if done := s.waiting[req.ReqNo]; done != nil {
		delete(s.waiting, req.ReqNo)
		done <- outcome{value: append([]byte(nil), value...), seq: seq, view: view}
	}
}
