package engine

import (
	"testing"
	"time"

	"flexitrust/internal/types"
)

// fakeClient is a ClientSubstrate on a hand-advanced clock.
type fakeClient struct {
	core   *ClientCore
	now    time.Duration
	timers map[types.TimerID]time.Duration // deadline by timer
	sent   []types.Message                 // to the primary
	bcast  []types.Message                 // to every replica
	done   []types.RequestKey
}

func (f *fakeClient) Now() time.Duration                      { return f.now }
func (f *fakeClient) Send(_ types.ReplicaID, m types.Message) { f.sent = append(f.sent, m) }
func (f *fakeClient) Broadcast(m types.Message)               { f.bcast = append(f.bcast, m) }
func (f *fakeClient) SetTimer(id types.TimerID, d time.Duration) {
	f.timers[id] = f.now + d
}
func (f *fakeClient) Complete(req *types.ClientRequest, _ []byte, _ types.SeqNum, _ types.View) {
	f.done = append(f.done, req.Key())
}

// advance moves the clock by d, firing every timer that falls due on the way.
func (f *fakeClient) advance(d time.Duration) {
	end := f.now + d
	for {
		var next types.TimerID
		at, found := end, false
		for id, t := range f.timers {
			if t <= at {
				next, at, found = id, t, true
			}
		}
		if !found {
			f.now = end
			return
		}
		delete(f.timers, next)
		f.now = at
		f.core.OnTimer(next)
	}
}

// newFakeClient builds a core over n replicas with fast quorum fast.
func newFakeClient(n, f, fast int) *fakeClient {
	fc := &fakeClient{timers: make(map[types.TimerID]time.Duration)}
	fc.core = NewClientCore(fc, 1, n, f, fast, time.Second)
	return fc
}

// submit issues request reqNo of client 1.
func (f *fakeClient) submit(reqNo uint64) {
	f.core.Submit(&types.ClientRequest{Client: 1, ReqNo: reqNo})
}

// resp is a response for request reqNo of client 1 at seq in view v.
func resp(from types.ReplicaID, v types.View, seq types.SeqNum, reqNo uint64) *types.Response {
	return &types.Response{Replica: from, View: v, Seq: seq, Digest: types.Digest{byte(seq)},
		Results: []types.Result{{Client: 1, ReqNo: reqNo, Value: []byte("OK")}}}
}

func TestRepliesDerivesTheSlowPath(t *testing.T) {
	if r := Replies(4, 1, 2); r.Slow != 0 || r.CertAck != 0 {
		t.Fatalf("f+1 fast quorum got a slow path: %+v", r)
	}
	if r := Replies(3, 1, 3); r.Slow != 2 || r.CertAck != 2 || r.CertTimeout != CertTimeout {
		t.Fatalf("all-n fast quorum: %+v, want an n−f certificate after CertTimeout", r)
	}
	if r := Replies(4, 1, 0); r.Fast != 2 {
		t.Fatalf("unset fast quorum = %d, want f+1", r.Fast)
	}
}

func TestClientCoreCountsEachReplicaOnce(t *testing.T) {
	fc := newFakeClient(4, 1, 2)
	fc.submit(1)
	fc.core.OnMessage(0, resp(0, 0, 1, 1))
	fc.core.OnMessage(0, resp(0, 0, 1, 1))
	if len(fc.done) != 0 {
		t.Fatal("one replica's repeated response completed the request")
	}
	fc.core.OnMessage(2, resp(2, 0, 1, 1))
	if len(fc.done) != 1 || len(fc.core.reqs) != 0 {
		t.Fatalf("two replicas did not complete the request: done %v", fc.done)
	}
	if fc.core.Watermark() != 1 {
		t.Fatalf("watermark = %d, want 1", fc.core.Watermark())
	}
}

func TestClientCoreMatchesDigestAndHistory(t *testing.T) {
	for name, alter := range map[string]func(*types.Response){
		"digest":  func(r *types.Response) { r.Digest[1] = 1 },
		"history": func(r *types.Response) { r.History[0] = 1 },
		"value":   func(r *types.Response) { r.Results[0].Value = []byte("NO") },
	} {
		fc := newFakeClient(4, 1, 2)
		fc.submit(1)
		fc.core.OnMessage(0, resp(0, 0, 1, 1))
		other := resp(1, 0, 1, 1)
		alter(other)
		fc.core.OnMessage(1, other)
		if len(fc.done) != 0 {
			t.Errorf("responses differing only in %s matched", name)
		}
	}
}

func TestClientCoreSlowPath(t *testing.T) {
	fc := newFakeClient(3, 1, 3) // MinZZ at f = 1: all 3, else 2 and a certificate
	fc.submit(1)
	fc.core.OnMessage(0, resp(0, 0, 1, 1))
	fc.advance(CertTimeout)
	if len(fc.bcast) != 0 {
		t.Fatal("certificate sent on one matching response, below Slow")
	}
	fc.core.OnMessage(1, resp(1, 0, 1, 1))
	fc.advance(CertTimeout - time.Nanosecond)
	if len(fc.bcast) != 0 {
		t.Fatal("certificate sent before CertTimeout passed")
	}
	fc.advance(time.Nanosecond)
	cc, ok := fc.bcast[len(fc.bcast)-1].(*types.CommitCert)
	if len(fc.bcast) != 1 || !ok || cc.Client != 1 || cc.Seq != 1 || cc.Digest != (types.Digest{1}) {
		t.Fatalf("want one certificate for seq 1, got %v", fc.bcast)
	}
	if fc.core.CertsSent() != 1 {
		t.Fatalf("CertsSent = %d, want 1", fc.core.CertsSent())
	}
	fc.core.OnMessage(0, &types.LocalCommit{Replica: 0, Seq: 1, Digest: types.Digest{9}})
	fc.core.OnMessage(1, &types.LocalCommit{Replica: 1, Seq: 1, Digest: types.Digest{9}})
	if len(fc.done) != 0 {
		t.Fatal("LocalCommits for another digest completed the request")
	}
	fc.core.OnMessage(0, &types.LocalCommit{Replica: 0, Seq: 1, Digest: cc.Digest})
	fc.core.OnMessage(0, &types.LocalCommit{Replica: 0, Seq: 1, Digest: cc.Digest})
	if len(fc.done) != 0 {
		t.Fatal("one replica's repeated LocalCommit completed the request")
	}
	fc.core.OnMessage(1, &types.LocalCommit{Replica: 1, Seq: 1, Digest: cc.Digest})
	if len(fc.done) != 1 {
		t.Fatal("CertAck LocalCommits did not complete the request")
	}
}

func TestClientCorePrimaryOnlyMovesForward(t *testing.T) {
	fc := newFakeClient(4, 1, 2)
	fc.submit(1)
	fc.submit(2)
	fc.core.OnMessage(1, resp(1, 2, 5, 1))
	fc.core.OnMessage(2, resp(2, 2, 5, 1))
	if fc.core.Primary() != 2 || fc.core.View() != 2 {
		t.Fatalf("after a view-2 quorum: primary %d view %d", fc.core.Primary(), fc.core.View())
	}
	fc.core.OnMessage(1, resp(1, 1, 4, 2))
	fc.core.OnMessage(3, resp(3, 1, 4, 2))
	if len(fc.done) != 2 {
		t.Fatalf("late quorum did not complete its request: %v", fc.done)
	}
	if fc.core.Primary() != 2 || fc.core.View() != 2 {
		t.Fatalf("a late view-1 quorum moved the client back: primary %d view %d", fc.core.Primary(), fc.core.View())
	}
}

func TestClientCoreResendBackoff(t *testing.T) {
	fc := newFakeClient(4, 1, 2)
	fc.submit(1)
	var at []time.Duration
	for len(at) < 6 {
		n := len(fc.bcast)
		fc.advance(time.Millisecond)
		if len(fc.bcast) > n {
			at = append(at, fc.now)
		}
	}
	want := []time.Duration{125, 375, 875, 1875, 2875, 3875}
	for i := range want {
		if at[i] != want[i]*time.Millisecond {
			t.Fatalf("resends at %v, want %v ms", at, want)
		}
	}
	if fc.core.Resends() != 6 {
		t.Fatalf("Resends = %d, want 6", fc.core.Resends())
	}
	fc.core.OnMessage(0, resp(0, 0, 1, 1))
	fc.core.OnMessage(1, resp(1, 0, 1, 1))
	n := len(fc.bcast)
	fc.advance(5 * time.Second)
	if len(fc.bcast) != n {
		t.Fatal("resent after the reply quorum")
	}
}
