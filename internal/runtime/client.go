package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"flexitrust/internal/crypto"
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
	// Replies is the matching-response quorum the protocol requires (f+1
	// for PBFT/MinBFT/Flexi-BFT, 2f+1 for Flexi-ZZ, n for Zyzzyva/MinZZ
	// fast paths).
	Replies int
	// RetryEvery is the ceiling of the backed-off re-broadcast of an
	// unresolved request to all replicas — the paper's client complaint
	// path. The first resend goes out after RetryEvery/8 and the interval
	// doubles up to RetryEvery (default 1s: 125, 375, 875, 1875 ms after the
	// send, then every second).
	RetryEvery time.Duration
}

// Client is the Rsm client library: it signs and submits transactions to
// the primary, collects matching responses, and re-broadcasts on timeout.
type Client struct {
	cfg     ClientConfig
	mu      sync.Mutex
	nextReq uint64
	primary types.ReplicaID
	pending map[uint64]*pendingReq
	// Lease-read state: outstanding single-reply exchanges by ReadNo, and
	// the rendezvous of finished ones kept for reuse.
	nextRead     uint64
	leasePending map[uint64]*leaseCall
	freeCalls    []*leaseCall
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

// pendingReq tracks one outstanding transaction.
type pendingReq struct {
	req     *types.ClientRequest
	tallies map[string]map[types.ReplicaID]bool
	done    chan outcome
}

// NewClient builds a client on its transport endpoint.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Replies <= 0 {
		cfg.Replies = cfg.F + 1
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	c := &Client{cfg: cfg, pending: make(map[uint64]*pendingReq),
		leasePending: make(map[uint64]*leaseCall)}
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

// Primary returns the replica this client currently believes leads the
// group (updated from every accepted reply quorum).
func (c *Client) Primary() types.ReplicaID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
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
// records.
func (c *Client) SubmitObserved(ctx context.Context, op []byte) ([]byte, types.SeqNum, types.View, error) {
	c.mu.Lock()
	c.nextReq++
	req := &types.ClientRequest{
		Client:    c.cfg.ID,
		ReqNo:     c.nextReq,
		Op:        op,
		Timestamp: time.Now().UnixNano(),
	}
	d := crypto.RequestDigest(req)
	if sig, err := c.cfg.Keyring.SignAsClient(c.cfg.ID, d[:]); err == nil {
		req.Sig = sig
	}
	p := &pendingReq{
		req:     req,
		tallies: make(map[string]map[types.ReplicaID]bool),
		done:    make(chan outcome, 1),
	}
	c.pending[req.ReqNo] = p
	primary := c.primary
	c.mu.Unlock()

	env := &wire.Envelope{Client: c.cfg.ID, IsClient: true, Msg: req}
	c.cfg.Transport.Send(transport.ReplicaAddr(int32(primary)), env)

	// Resends back off from RetryEvery/8, doubling up to RetryEvery: the first
	// complaint is what starts the backups' failure detector, so it goes out
	// early; a request that is merely slow costs a few resends, not a stream.
	wait := c.cfg.RetryEvery / 8
	retry := time.NewTimer(wait)
	defer retry.Stop()
	defer func() {
		c.mu.Lock()
		delete(c.pending, req.ReqNo)
		c.mu.Unlock()
	}()
	for {
		select {
		case res := <-p.done:
			return res.value, res.seq, res.view, nil
		case <-retry.C:
			// Complain to everyone; replicas answer from their caches or
			// forward to the primary (and may trigger a view change).
			resend := &wire.Envelope{Client: c.cfg.ID, IsClient: true,
				Msg: &types.ClientResend{Request: req}}
			for i := 0; i < c.cfg.N; i++ {
				c.cfg.Transport.Send(transport.ReplicaAddr(int32(i)), resend)
			}
			wait = min(2*wait, c.cfg.RetryEvery)
			retry.Reset(wait)
		case <-ctx.Done():
			return nil, 0, 0, fmt.Errorf("client %d request %d: %w", c.cfg.ID, req.ReqNo, ctx.Err())
		}
	}
}

// onEnvelope tallies responses.
func (c *Client) onEnvelope(env *wire.Envelope) {
	if lrr, ok := env.Msg.(*types.LeaseReadReply); ok {
		c.mu.Lock()
		if call := c.leasePending[lrr.ReadNo]; call != nil {
			select {
			case call.ch <- lrr:
			default: // a second reply to the same read
			}
		}
		c.mu.Unlock()
		return
	}
	resp, ok := env.Msg.(*types.Response)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range resp.Results {
		res := &resp.Results[i]
		if res.Client != c.cfg.ID {
			continue
		}
		p, outstanding := c.pending[res.ReqNo]
		if !outstanding {
			continue
		}
		key := matchKey(resp, res)
		set := p.tallies[key]
		if set == nil {
			set = make(map[types.ReplicaID]bool)
			p.tallies[key] = set
		}
		if set[resp.Replica] {
			continue
		}
		set[resp.Replica] = true
		if len(set) >= c.cfg.Replies {
			if resp.View > 0 {
				c.primary = types.Primary(resp.View, c.cfg.N)
			}
			select {
			case p.done <- outcome{value: append([]byte(nil), res.Value...),
				seq: resp.Seq, view: resp.View}:
			default:
			}
		}
	}
}

// matchKey captures what must be identical for responses to match: view,
// sequence number and the result value.
func matchKey(resp *types.Response, res *types.Result) string {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(resp.View))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(resp.Seq))
	return string(hdr[:]) + string(res.Value)
}
