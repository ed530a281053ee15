package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// charge is one recorded Substrate.Charge call.
type charge struct {
	step Step
	n    int
}

// fakeSubstrate records what a Host asks of its substrate. Verifications
// complete synchronously; record toggles the charge log (off, Charge is the
// runtime's no-op).
type fakeSubstrate struct {
	record   bool
	charges  []charge
	accesses int

	mu      sync.Mutex
	replies []types.LeaseReadReply
}

func (s *fakeSubstrate) Now() time.Duration { return 0 }

func (s *fakeSubstrate) Charge(step Step, n int) {
	if s.record {
		s.charges = append(s.charges, charge{step, n})
	}
}

func (s *fakeSubstrate) TrustedAccess(bool) { s.accesses++ }

func (s *fakeSubstrate) VerifyDone(ok bool, done func(bool)) { done(ok) }

func (s *fakeSubstrate) SendLeaseReply(_ types.ClientID, r types.LeaseReadReply) {
	s.mu.Lock()
	s.replies = append(s.replies, r)
	s.mu.Unlock()
}

func (s *fakeSubstrate) sent() []types.LeaseReadReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]types.LeaseReadReply(nil), s.replies...)
}

// fakeProto records what reaches the protocol and reports a settable status.
type fakeProto struct {
	requests []*types.ClientRequest
	messages []types.ReplicaID // sender of each OnMessage
	status   Status
}

func (p *fakeProto) Init(Env)                         {}
func (p *fakeProto) OnRequest(r *types.ClientRequest) { p.requests = append(p.requests, r) }
func (p *fakeProto) OnMessage(from types.ReplicaID, _ types.Message) {
	p.messages = append(p.messages, from)
}
func (p *fakeProto) OnTimer(types.TimerID) {}
func (p *fakeProto) Status() Status        { return p.status }

// countingTC counts AppendF calls per counter id.
type countingTC struct {
	trusted.Component
	appendF map[uint32]int
}

func (c *countingTC) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	c.appendF[q]++
	return c.Component.AppendF(q, x)
}

// hostBed is a Host on replica 0 of a 4-replica group, over the fakes.
type hostBed struct {
	h     *Host
	sub   *fakeSubstrate
	proto *fakeProto
	tc    *countingTC
	obs   *obs.Observer
}

func newHostBed(lease bool) *hostBed {
	auth := trusted.NewHMACAuthority(7, 4)
	b := &hostBed{
		sub:   &fakeSubstrate{},
		proto: &fakeProto{},
		obs:   obs.New(obs.Config{}),
	}
	b.tc = &countingTC{
		Component: trusted.New(trusted.Config{Host: 0, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(0)}),
		appendF:   map[uint32]int{},
	}
	cfg := DefaultConfig(4, 1)
	cfg.ReadLease = lease
	cfg.LeaseDuration = time.Minute
	cfg.Observer = b.obs
	b.h = NewHost(HostConfig{
		Engine:      cfg,
		NewProtocol: func(Config) Protocol { return b.proto },
		Records:     100,
		TC:          b.tc,
		Verify:      auth.Verify,
	}, b.sub)
	return b
}

// batch builds a batch of ops from one client.
func batch(ops ...*kvstore.Op) *types.Batch {
	b := &types.Batch{}
	for i, op := range ops {
		b.Requests = append(b.Requests, &types.ClientRequest{Client: 1, ReqNo: uint64(i + 1), Op: op.Encode()})
	}
	return b
}

func update(key uint64, v string) *kvstore.Op {
	return &kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: []byte(v)}
}

// TestHostDeliverRoutesEachKind: a request batch fans in request by request,
// a lone request goes to OnRequest, a replica's message arrives from that
// replica, a client's from -1, and a leased read never reaches the protocol.
func TestHostDeliverRoutesEachKind(t *testing.T) {
	b := newHostBed(false)
	reqs := batch(update(1, "a"), update(2, "b"), update(3, "c")).Requests
	b.h.Deliver(-1, &types.RequestBatch{Requests: reqs})
	b.h.Deliver(-1, &types.ClientRequest{Client: 2, ReqNo: 1})
	b.h.Deliver(2, &types.Prepare{})
	b.h.Deliver(-1, &types.ClientResend{})
	b.h.Deliver(-1, &types.LeaseRead{Client: 3, ReadNo: 1, Key: 1})
	if len(b.proto.requests) != 4 || b.proto.requests[0] != reqs[0] || b.proto.requests[2] != reqs[2] {
		t.Fatalf("OnRequest got %d requests, want the batch's 3 in order then 1", len(b.proto.requests))
	}
	if want := []types.ReplicaID{2, -1}; !reflect.DeepEqual(b.proto.messages, want) {
		t.Fatalf("OnMessage senders %v, want %v", b.proto.messages, want)
	}
	if r := b.sub.sent(); len(r) != 1 || r[0].Status != types.LeaseReadNoLease {
		t.Fatalf("leased read with leases off answered %+v, want one NoLease", r)
	}
}

// TestHostChargeSequence pins the steps one client batch is metered by, in
// the order the simulator's cost model charges them. The client authenticator
// check is not among them: the protocol's admission gate charges it, through
// Crypto().VerifyClient, once per entry it checks — at the primary on
// arrival and at every backup for each request of a proposal.
func TestHostChargeSequence(t *testing.T) {
	b := newHostBed(false)
	b.sub.record = true
	bt := batch(update(1, "a"), update(2, "b"))
	b.h.Deliver(-1, &types.RequestBatch{Requests: bt.Requests})
	b.h.Execute(1, bt)
	b.h.Deliver(-1, &types.LeaseRead{Client: 3, ReadNo: 1, Key: 1})
	want := []charge{
		{StepBaseHandle, 1}, {StepMACVerify, 1}, {StepHashPerReq, 2},
		{StepExecPerReq, 2},
		{StepMACVerify, 1}, {StepLeaseReadPerReq, 1}, {StepMACSign, 1},
	}
	if !reflect.DeepEqual(b.sub.charges, want) {
		t.Fatalf("charges %v, want %v", b.sub.charges, want)
	}
}

// grant executes a lease grant at seq and returns the epoch it committed.
func (b *hostBed) grant(t *testing.T, seq types.SeqNum) uint64 {
	t.Helper()
	res := b.h.Execute(seq, batch(kvstore.EncodeLeaseGrant(time.Minute)))
	epoch, ok := kvstore.DecodeLeaseGrant(res[0].Value)
	if !ok {
		t.Fatalf("grant at seq %d did not commit: %q", seq, res[0].Value)
	}
	return epoch
}

// TestHostGrantScanArmsOnlyAServingPrimary: a committed grant arms the
// tracker, with exactly one AppendF on LeaseCounterID, at the view's primary
// outside a view change, and nowhere else.
func TestHostGrantScanArmsOnlyAServingPrimary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status Status
		armed  bool
	}{
		{"primary", Status{Primary: 0}, true},
		{"backup", Status{View: 1, Primary: 1}, false},
		{"primary in a view change", Status{Primary: 0, InViewChange: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newHostBed(true)
			b.proto.status = tc.status
			epoch := b.grant(t, 1)
			got, active := b.h.LeaseState()
			if active != tc.armed || (tc.armed && got != epoch) {
				t.Fatalf("tracker at epoch %d active=%v, want epoch %d active=%v", got, active, epoch, tc.armed)
			}
			want := map[uint32]int{}
			if tc.armed {
				want[LeaseCounterID] = 1
			}
			if !reflect.DeepEqual(b.tc.appendF, want) || b.sub.accesses != len(want) {
				t.Fatalf("AppendF calls %v with %d accesses, want %v", b.tc.appendF, b.sub.accesses, want)
			}
		})
	}
}

// TestHostStoreRevokeCountsOnce: a committed revoke op stops the primary
// serving at once and counts one revocation; a later batch with the lease
// already off counts none.
func TestHostStoreRevokeCountsOnce(t *testing.T) {
	b := newHostBed(true)
	b.grant(t, 1)
	b.h.Execute(2, batch(kvstore.EncodeLeaseRevoke()))
	b.h.Execute(3, batch(update(1, "x")))
	if _, active := b.h.LeaseState(); active {
		t.Fatal("committed revoke left the tracker serving")
	}
	if n := b.obs.Metrics().Counter(obs.MLeaseRevocations).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MLeaseRevocations, n)
	}
}

// TestHostRestoreStateRevokes: rolling the store back stops local serving.
func TestHostRestoreStateRevokes(t *testing.T) {
	b := newHostBed(true)
	snap := b.h.SnapshotState()
	b.grant(t, 1)
	b.h.RestoreState(snap)
	if _, active := b.h.LeaseState(); active {
		t.Fatal("RestoreState left the tracker serving")
	}
	if b.h.StateDigest() != b.h.Store().StateDigest() {
		t.Fatal("StateDigest is not the store's")
	}
}

// TestHostVerifyMemo: a verified attestation is answered from the memo the
// second time, and only its first check counts as a verification; a forged
// one fails every time and is never memoized.
func TestHostVerifyMemo(t *testing.T) {
	b := newHostBed(false)
	a, err := b.h.Trusted().AppendF(0, types.Digest{1})
	if err != nil {
		t.Fatal(err)
	}
	forged := *a
	forged.Digest = types.Digest{2} // a statement a's proof does not cover
	var got []bool
	for _, x := range []*types.Attestation{a, a, nil, &forged, &forged} {
		b.h.VerifyAttestationAsync(x, func(ok bool) { got = append(got, ok) })
	}
	if want := []bool{true, true, false, false, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts %v, want %v", got, want)
	}
	m := b.obs.Metrics()
	if v, h := m.Counter(obs.MSigVerifies).Value(), m.Counter(obs.MSigVerifyCacheHits).Value(); v != 3 || h != 1 {
		t.Fatalf("verifies=%d hits=%d, want 3, 1", v, h)
	}
}

// TestHostExecuteAllocatesLikeTheStore: with leases off and the runtime's
// no-op Charge, the host adds no allocation to applying a batch.
func TestHostExecuteAllocatesLikeTheStore(t *testing.T) {
	b := newHostBed(false)
	bt := batch(update(1, "a"), update(2, "b"), update(3, "c"))
	store := kvstore.New(100)
	base := testing.AllocsPerRun(100, func() { store.ApplyBatch(bt) })
	host := testing.AllocsPerRun(100, func() { b.h.Execute(1, bt) })
	if host > base {
		t.Fatalf("Host.Execute allocates %.1f per batch, ApplyBatch alone %.1f", host, base)
	}
}

// TestHostParkDrainRace delivers leased reads fenced one past the read view
// while another goroutine executes the batch that reaches the fence, so the
// deliveries race that execution's publish-then-drain. Every read is answered
// exactly once, with the value its fence's execution wrote or a later one,
// and none is left parked.
func TestHostParkDrainRace(t *testing.T) {
	b := newHostBed(true)
	b.grant(t, 1)
	const last = 300
	var next atomic.Uint64 // the sequence number the executor may run next
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := types.SeqNum(2); i <= last; i++ {
			for next.Load() < uint64(i) {
				runtime.Gosched()
			}
			b.h.Execute(i, batch(update(5, fmt.Sprint(i))))
		}
	}()
	sent := 0
	for fence := types.SeqNum(2); fence <= last; fence++ {
		next.Store(uint64(fence))
		// Bounded far below MaxParkedReads, so no read is evicted.
		for i := 0; i < 256 && b.h.readView.Seq() < fence; i++ {
			sent++
			b.h.Deliver(-1, &types.LeaseRead{Client: 9, ReadNo: uint64(fence), Key: 5, Fence: fence})
		}
		for b.h.readView.Seq() < fence {
			runtime.Gosched()
		}
	}
	wg.Wait()
	replies := b.sub.sent()
	if len(replies) != sent || b.h.Parked() != 0 {
		t.Fatalf("%d replies to %d reads, %d still parked", len(replies), sent, b.h.Parked())
	}
	for _, r := range replies {
		var v uint64
		if _, err := fmt.Sscan(string(r.Value), &v); err != nil || r.Status != types.LeaseReadOK || v < r.ReadNo {
			t.Fatalf("read fenced at %d answered %+v", r.ReadNo, r)
		}
	}
}
