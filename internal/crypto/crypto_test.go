package crypto

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"flexitrust/internal/types"
)

func testKeyring(t *testing.T) *Keyring {
	t.Helper()
	ring, err := NewKeyring(7, 4, []types.ClientID{100, 101})
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func TestKeyringDeterministic(t *testing.T) {
	a, _ := NewKeyring(7, 4, []types.ClientID{100})
	b, _ := NewKeyring(7, 4, []types.ClientID{100})
	for i := types.ReplicaID(0); i < 4; i++ {
		if !bytes.Equal(a.PublicKey(i), b.PublicKey(i)) {
			t.Fatalf("replica %d keys differ across identical seeds", i)
		}
	}
	c, _ := NewKeyring(8, 4, []types.ClientID{100})
	if bytes.Equal(a.PublicKey(0), c.PublicKey(0)) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ring := testKeyring(t)
	s0 := NewSuite(ring, 0)
	s1 := NewSuite(ring, 1)
	payload := []byte("preprepare v1 s9")
	sig := s0.Sign(payload)
	if !s1.Verify(0, payload, sig) {
		t.Fatal("valid signature rejected")
	}
	if s1.Verify(1, payload, sig) {
		t.Fatal("signature attributed to wrong replica accepted")
	}
	if s1.Verify(0, []byte("tampered"), sig) {
		t.Fatal("signature over different payload accepted")
	}
	if s1.Verify(99, payload, sig) {
		t.Fatal("signature from out-of-range replica accepted")
	}
}

// TestClientAuthenticators: a client's vector verifies at every replica, and
// only as that client, over that request, for a provisioned id.
func TestClientAuthenticators(t *testing.T) {
	ring := testKeyring(t)
	suites := []*Suite{NewSuite(ring, 0), NewSuite(ring, 1), NewSuite(ring, 2), NewSuite(ring, 3)}
	auth, err := ring.ClientAuthenticator(100)
	if err != nil {
		t.Fatal(err)
	}
	d := HashBytes([]byte("op: set k v"))
	vec := auth.Authenticate(d)
	if len(vec) != 4*AuthEntryLen {
		t.Fatalf("vector is %d bytes, want %d", len(vec), 4*AuthEntryLen)
	}

	t.Run("round trip at every replica", func(t *testing.T) {
		for r, s := range suites {
			if !s.VerifyClient(100, d[:], vec) {
				t.Fatalf("replica %d rejected a valid vector", r)
			}
		}
		if again := auth.Authenticate(d); !bytes.Equal(again, vec) {
			t.Fatal("authenticating the same digest twice gave different vectors")
		}
	})
	t.Run("impersonation", func(t *testing.T) {
		for r, s := range suites {
			if s.VerifyClient(101, d[:], vec) {
				t.Fatalf("replica %d accepted client 100's vector as client 101's", r)
			}
		}
	})
	t.Run("tampering", func(t *testing.T) {
		other := HashBytes([]byte("op: set k w"))
		for r, s := range suites {
			if s.VerifyClient(100, other[:], vec) {
				t.Fatalf("replica %d accepted the vector over another request", r)
			}
			flipped := bytes.Clone(vec)
			flipped[r*AuthEntryLen] ^= 1
			if s.VerifyClient(100, d[:], flipped) {
				t.Fatalf("replica %d accepted its entry with one byte flipped", r)
			}
			if s.VerifyClient(100, d[:], vec[:len(vec)-1]) {
				t.Fatalf("replica %d accepted a truncated vector", r)
			}
		}
		// Flipping another replica's entry is invisible here: each replica
		// checks its own.
		flipped := bytes.Clone(vec)
		flipped[3*AuthEntryLen] ^= 1
		if !suites[0].VerifyClient(100, d[:], flipped) {
			t.Fatal("replica 0 rejected a vector whose entry for replica 3 was changed")
		}
	})
	t.Run("unknown id", func(t *testing.T) {
		if _, err := ring.ClientAuthenticator(999); err == nil {
			t.Fatal("ClientAuthenticator for an unprovisioned client should error")
		}
		if suites[0].VerifyClient(999, d[:], vec) {
			t.Fatal("unprovisioned client accepted")
		}
	})
}

// TestClientKeysLeaveReplicaKeysAlone: provisioning clients draws nothing
// from the replica keys' stream.
func TestClientKeysLeaveReplicaKeysAlone(t *testing.T) {
	bare, _ := NewKeyring(7, 4, nil)
	ring := testKeyring(t)
	for i := types.ReplicaID(0); i < 4; i++ {
		if !bytes.Equal(bare.PublicKey(i), ring.PublicKey(i)) {
			t.Fatalf("replica %d key depends on the client list", i)
		}
	}
}

// TestClientAuthenticatorAllocations guards the request path: a vector costs
// its one output allocation to compute and nothing to check. A scratch
// block handed to cipher.Block escapes, which is why each cmac keeps its own.
func TestClientAuthenticatorAllocations(t *testing.T) {
	ring := testKeyring(t)
	auth, err := ring.ClientAuthenticator(100)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(ring, 1)
	d := HashBytes([]byte("op"))
	vec := auth.Authenticate(d)
	if n := testing.AllocsPerRun(100, func() { auth.Authenticate(d) }); n != 1 {
		t.Errorf("Authenticate: %.1f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.VerifyClient(100, d[:], vec) }); n != 0 {
		t.Errorf("VerifyClient: %.1f allocations, want 0", n)
	}
}

func TestBatchDigestOrderSensitivity(t *testing.T) {
	r1 := &types.ClientRequest{Client: 1, ReqNo: 1, Op: []byte("a")}
	r2 := &types.ClientRequest{Client: 2, ReqNo: 1, Op: []byte("b")}
	d12 := BatchDigest([]*types.ClientRequest{r1, r2})
	d21 := BatchDigest([]*types.ClientRequest{r2, r1})
	if d12 == d21 {
		t.Fatal("batch digest must commit to request order")
	}
	if d12 != BatchDigest([]*types.ClientRequest{r1, r2}) {
		t.Fatal("batch digest not deterministic")
	}
}

func TestRequestDigestDistinguishesFields(t *testing.T) {
	base := &types.ClientRequest{Client: 1, ReqNo: 1, Op: []byte("op")}
	variants := []*types.ClientRequest{
		{Client: 2, ReqNo: 1, Op: []byte("op")},
		{Client: 1, ReqNo: 2, Op: []byte("op")},
		{Client: 1, ReqNo: 1, Op: []byte("op2")},
	}
	d := RequestDigest(base)
	for i, v := range variants {
		if RequestDigest(v) == d {
			t.Fatalf("variant %d collides with base digest", i)
		}
	}
}

// TestConcurrentRequestDigestAgrees: nodes that digest one shared request at
// once, as the hub's do, all get the digest a fresh copy of it has, and a
// later call answers from the memo without allocating. Run it under -race.
func TestConcurrentRequestDigestAgrees(t *testing.T) {
	for round := 0; round < 100; round++ {
		op := []byte{byte(round), 'o', 'p'}
		want := RequestDigest(&types.ClientRequest{Client: 3, ReqNo: uint64(round), Op: op})
		shared := &types.ClientRequest{Client: 3, ReqNo: uint64(round), Op: op}
		got := make([]types.Digest, 6)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = RequestDigest(shared)
			}()
		}
		wg.Wait()
		for g, d := range got {
			if d != want {
				t.Fatalf("round %d: goroutine %d got %v, want %v", round, g, d, want)
			}
		}
		if n := testing.AllocsPerRun(10, func() { RequestDigest(shared) }); n != 0 {
			t.Fatalf("a memoized RequestDigest allocates %.1f", n)
		}
	}
}

func TestHistoryDigestChains(t *testing.T) {
	d1 := HashBytes([]byte("b1"))
	d2 := HashBytes([]byte("b2"))
	h1 := HistoryDigest(types.ZeroDigest, d1)
	h2 := HistoryDigest(h1, d2)
	if h1 == h2 {
		t.Fatal("history digest did not advance")
	}
	// Divergent histories must not collide.
	h2b := HistoryDigest(h1, HashBytes([]byte("b2'")))
	if h2 == h2b {
		t.Fatal("different batches produced identical histories")
	}
	// Same inputs are reproducible.
	if h2 != HistoryDigest(HistoryDigest(types.ZeroDigest, d1), d2) {
		t.Fatal("history digest not deterministic")
	}
}

// Property: signatures verify if and only if payload, signer and sig match.
func TestSignVerifyProperty(t *testing.T) {
	ring := testKeyring(t)
	suites := []*Suite{NewSuite(ring, 0), NewSuite(ring, 1), NewSuite(ring, 2), NewSuite(ring, 3)}
	prop := func(payload []byte, signer, verifier uint8) bool {
		s := suites[int(signer)%4]
		v := suites[int(verifier)%4]
		sig := s.Sign(payload)
		return v.Verify(types.ReplicaID(int(signer)%4), payload, sig)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: HashConcat is injective on structure for our use (no accidental
// equality between a split and its concatenation digesting differently).
func TestHashConcatMatchesSingleWrite(t *testing.T) {
	prop := func(a, b []byte) bool {
		joined := append(append([]byte{}, a...), b...)
		return HashConcat(a, b) == HashBytes(joined)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkClientAuthenticate is a client's cost per request at n = 4: four
// AES-CMAC entries over the request digest.
func BenchmarkClientAuthenticate(b *testing.B) {
	ring, err := NewKeyring(7, 4, []types.ClientID{100})
	if err != nil {
		b.Fatal(err)
	}
	auth, err := ring.ClientAuthenticator(100)
	if err != nil {
		b.Fatal(err)
	}
	d := HashBytes([]byte("op"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		auth.Authenticate(d)
	}
}

// BenchmarkVerifyClient is a replica's cost per request it admits: one entry.
func BenchmarkVerifyClient(b *testing.B) {
	ring, err := NewKeyring(7, 4, []types.ClientID{100})
	if err != nil {
		b.Fatal(err)
	}
	auth, err := ring.ClientAuthenticator(100)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSuite(ring, 2)
	d := HashBytes([]byte("op"))
	vec := auth.Authenticate(d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.VerifyClient(100, d[:], vec)
	}
}
