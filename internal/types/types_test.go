package types

import (
	"testing"
	"testing/quick"
)

func TestPrimaryRotation(t *testing.T) {
	if Primary(0, 4) != 0 || Primary(1, 4) != 1 || Primary(4, 4) != 0 || Primary(5, 4) != 1 {
		t.Fatal("primary rotation broken")
	}
	// 2f+1 cluster.
	if Primary(3, 3) != 0 || Primary(7, 3) != 1 {
		t.Fatal("primary rotation broken for n=3")
	}
}

func TestAttestationBytesInjective(t *testing.T) {
	base := Attestation{Replica: 1, Counter: 2, Epoch: 3, Value: 4, Digest: Digest{5}}
	variants := []Attestation{base, base, base, base, base}
	variants[0].Replica = 9
	variants[1].Counter = 9
	variants[2].Epoch = 9
	variants[3].Value = 9
	variants[4].Digest = Digest{9}
	bb := string(base.Bytes())
	for i, v := range variants {
		if string(v.Bytes()) == bb {
			t.Fatalf("variant %d collides with base encoding", i)
		}
	}
}

func TestMessageTypes(t *testing.T) {
	cases := []struct {
		m    Message
		want MsgType
	}{
		{&ClientRequest{}, MsgClientRequest},
		{&RequestBatch{}, MsgRequestBatch},
		{&Preprepare{}, MsgPreprepare},
		{&Prepare{}, MsgPrepare},
		{&Commit{}, MsgCommit},
		{&Response{}, MsgResponse},
		{&Checkpoint{}, MsgCheckpoint},
		{&ViewChange{}, MsgViewChange},
		{&NewView{}, MsgNewView},
		{&CommitCert{}, MsgCommitCert},
		{&LocalCommit{}, MsgLocalCommit},
		{&ClientResend{}, MsgClientResend},
		{&Forward{}, MsgForward},
		{&Hello{}, MsgHello},
	}
	seen := make(map[MsgType]bool)
	for _, c := range cases {
		if c.m.Type() != c.want {
			t.Fatalf("%T.Type() = %v, want %v", c.m, c.m.Type(), c.want)
		}
		if seen[c.want] {
			t.Fatalf("duplicate message type %v", c.want)
		}
		seen[c.want] = true
		if c.want.String() == "" || c.want.String()[0] == 'M' && c.want != MsgInvalid {
			// String() must be a friendly name, not MsgType(n).
		}
	}
}

func TestRequestKeyIdentity(t *testing.T) {
	a := &ClientRequest{Client: 1, ReqNo: 2}
	b := &ClientRequest{Client: 1, ReqNo: 2, Op: []byte("different payload")}
	if a.Key() != b.Key() {
		t.Fatal("key must depend only on (client, reqNo)")
	}
	if a.Key() == (&ClientRequest{Client: 1, ReqNo: 3}).Key() {
		t.Fatal("distinct reqNos collide")
	}
	if a.Key() == (&ClientRequest{Client: 2, ReqNo: 2}).Key() {
		t.Fatal("distinct clients collide")
	}
}

func TestBatchLenNilSafe(t *testing.T) {
	var b *Batch
	if b.Len() != 0 {
		t.Fatal("nil batch length")
	}
	if (&Batch{Requests: make([]*ClientRequest, 3)}).Len() != 3 {
		t.Fatal("batch length")
	}
}

func TestDigestStringAndZero(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("zero digest not zero")
	}
	d := Digest{0xab, 0xcd}
	if d.IsZero() {
		t.Fatal("non-zero digest reported zero")
	}
	if d.String() != "abcd00000000" {
		t.Fatalf("digest string = %q", d.String())
	}
}

// Property: Primary is always within [0, n).
func TestPrimaryRangeProperty(t *testing.T) {
	prop := func(v uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := Primary(View(v), int(n))
		return p >= 0 && int(p) < int(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerIDString(t *testing.T) {
	id := TimerID{Kind: TimerViewChange, View: 2, Seq: 9, Aux: 1}
	if id.String() == "" {
		t.Fatal("empty timer string")
	}
	if TimerViewChange.String() != "ViewChange" {
		t.Fatalf("timer kind string = %q", TimerViewChange.String())
	}
}

// TestDigestMemoAllocatesNothing: recording a request's digest and reading it
// back allocate nothing; the memo holds the digest by value.
func TestDigestMemoAllocatesNothing(t *testing.T) {
	r := &ClientRequest{Client: 1, ReqNo: 1}
	d := Digest{7}
	allocs := testing.AllocsPerRun(100, func() {
		r.digestState.Store(digestEmpty)
		r.MemoizeDigest(d)
		if got, ok := r.CachedDigest(); !ok || got != d {
			t.Fatalf("memo read %v, %v", got, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoizing a digest allocates %.1f", allocs)
	}
}
