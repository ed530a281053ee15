package trusted

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/types"
)

func newTestComponent(t *testing.T, keepLog bool, profile Profile) (Component, *HMACAuthority) {
	t.Helper()
	auth := NewHMACAuthority(42, 4)
	c := New(Config{Host: 1, Profile: profile, KeepLog: keepLog, Attestor: auth.For(1)})
	return c, auth
}

func TestAppendFIncrementsContiguously(t *testing.T) {
	c, auth := newTestComponent(t, false, ProfileSGXEnclave)
	for want := uint64(1); want <= 100; want++ {
		a, err := c.AppendF(0, crypto.HashBytes([]byte{byte(want)}))
		if err != nil {
			t.Fatalf("AppendF(%d): %v", want, err)
		}
		if a.Value != want {
			t.Fatalf("AppendF returned value %d, want %d", a.Value, want)
		}
		if !auth.Verify(a) {
			t.Fatalf("attestation for value %d does not verify", want)
		}
	}
}

func TestAppendFIndependentCounters(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	for i := 0; i < 5; i++ {
		if a, _ := c.AppendF(7, types.ZeroDigest); a.Value != uint64(i+1) {
			t.Fatalf("counter 7 value = %d, want %d", a.Value, i+1)
		}
	}
	a, _ := c.AppendF(9, types.ZeroDigest)
	if a.Value != 1 {
		t.Fatalf("fresh counter 9 value = %d, want 1", a.Value)
	}
}

func TestAppendHostSuppliedValues(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	a, err := c.Append(0, 5, types.ZeroDigest)
	if err != nil || a.Value != 5 {
		t.Fatalf("Append(5) = %v, %v; want value 5", a, err)
	}
	// ⊥ means next.
	a, err = c.Append(0, 0, types.ZeroDigest)
	if err != nil || a.Value != 6 {
		t.Fatalf("Append(⊥) = %v, %v; want value 6", a, err)
	}
	// Going backwards or reusing must fail.
	for _, k := range []uint64{1, 5, 6} {
		if _, err := c.Append(0, k, types.ZeroDigest); !errors.Is(err, ErrNonMonotonic) {
			t.Fatalf("Append(%d) err = %v, want ErrNonMonotonic", k, err)
		}
	}
	// Skipping forward is allowed; the skipped slots are burned.
	if a, err = c.Append(0, 100, types.ZeroDigest); err != nil || a.Value != 100 {
		t.Fatalf("Append(100) = %v, %v; want value 100", a, err)
	}
}

func TestLookupOnLogComponent(t *testing.T) {
	c, auth := newTestComponent(t, true, ProfileSGXEnclave)
	d1 := crypto.HashBytes([]byte("tx1"))
	d2 := crypto.HashBytes([]byte("tx2"))
	if _, err := c.Append(3, 0, d1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(3, 0, d2); err != nil {
		t.Fatal(err)
	}
	a, err := c.Lookup(3, 1)
	if err != nil {
		t.Fatalf("Lookup(3,1): %v", err)
	}
	if a.Digest != d1 || a.Value != 1 {
		t.Fatalf("Lookup(3,1) = %v, want digest %s at 1", a, d1)
	}
	if !auth.Verify(a) {
		t.Fatal("lookup attestation does not verify")
	}
	if _, err := c.Lookup(3, 9); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("Lookup empty slot err = %v, want ErrNoSuchSlot", err)
	}
	if got := c.LogSize(); got != 2 {
		t.Fatalf("LogSize = %d, want 2", got)
	}
}

func TestCounterOnlyComponentKeepsNoLog(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	c.Append(0, 0, crypto.HashBytes([]byte("x")))
	if _, err := c.Lookup(0, 1); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("Lookup on counter-only component err = %v, want ErrNoSuchSlot", err)
	}
	if got := c.LogSize(); got != 0 {
		t.Fatalf("LogSize = %d, want 0 for counter-only component", got)
	}
}

func TestCreateBumpsEpochAndResetsValue(t *testing.T) {
	c, auth := newTestComponent(t, false, ProfileSGXEnclave)
	c.AppendF(0, types.ZeroDigest)
	c.AppendF(0, types.ZeroDigest)
	a, err := c.Create(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch != 1 || a.Value != 10 {
		t.Fatalf("Create = epoch %d value %d, want epoch 1 value 10", a.Epoch, a.Value)
	}
	if !auth.Verify(a) {
		t.Fatal("create attestation does not verify")
	}
	next, _ := c.AppendF(0, types.ZeroDigest)
	if next.Epoch != 1 || next.Value != 11 {
		t.Fatalf("post-Create AppendF = epoch %d value %d, want 1/11", next.Epoch, next.Value)
	}
}

func TestRollbackOnUnprotectedHardware(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	c.AppendF(0, types.ZeroDigest)
	snap := c.Snapshot()
	c.AppendF(0, types.ZeroDigest)
	c.AppendF(0, types.ZeroDigest)
	if err := c.Restore(snap); err != nil {
		t.Fatalf("Restore on SGX profile: %v", err)
	}
	// After rollback the component re-issues value 2: equivocation enabled.
	a, _ := c.AppendF(0, types.ZeroDigest)
	if a.Value != 2 {
		t.Fatalf("post-rollback AppendF value = %d, want 2 (reissued)", a.Value)
	}
}

func TestRollbackBlockedOnProtectedHardware(t *testing.T) {
	for _, p := range []Profile{ProfileTPM, ProfileSGXPersistent, ProfileADAMCS} {
		c, _ := newTestComponent(t, false, p)
		c.AppendF(0, types.ZeroDigest)
		snap := c.Snapshot()
		c.AppendF(0, types.ZeroDigest)
		if err := c.Restore(snap); !errors.Is(err, ErrRollbackProtected) {
			t.Fatalf("%s: Restore err = %v, want ErrRollbackProtected", p.Name, err)
		}
	}
}

func TestAttestationForgeryRejected(t *testing.T) {
	c, auth := newTestComponent(t, false, ProfileSGXEnclave)
	a, _ := c.AppendF(0, crypto.HashBytes([]byte("real")))
	forged := *a
	forged.Value = 99 // host tries to claim a different binding
	if auth.Verify(&forged) {
		t.Fatal("forged attestation (altered value) verified")
	}
	forged = *a
	forged.Digest = crypto.HashBytes([]byte("fake"))
	if auth.Verify(&forged) {
		t.Fatal("forged attestation (altered digest) verified")
	}
	forged = *a
	forged.Replica = 2 // replay under another component's identity
	if auth.Verify(&forged) {
		t.Fatal("forged attestation (altered issuer) verified")
	}
	if !auth.Verify(a) {
		t.Fatal("genuine attestation rejected")
	}
}

// TestHMACAuthorityAllocations: verifying reuses the key's HMAC state and
// scratch, and attesting allocates only the proof the attestation keeps.
func TestHMACAuthorityAllocations(t *testing.T) {
	auth := NewHMACAuthority(42, 4)
	att := auth.For(1)
	a := &types.Attestation{Replica: 1, Counter: 2, Epoch: 3, Value: 4, Digest: crypto.HashBytes([]byte("d"))}
	att.Attest(a)
	if allocs := testing.AllocsPerRun(100, func() { auth.Verify(a) }); allocs != 0 {
		t.Fatalf("Verify allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { att.Attest(a) }); allocs != 1 {
		t.Fatalf("Attest allocates %v times, want 1 (the proof)", allocs)
	}
}

// TestVerifiersShareNoLock: each Verifier checks with keyed states of its
// own, so one replica's check never waits for another's, nor for a signer
// or the authority it was taken from: with every other lock on the signer's
// key held, a second verifier still checks its attestation.
func TestVerifiersShareNoLock(t *testing.T) {
	auth := NewHMACAuthority(42, 4)
	att := auth.For(1)
	a := &types.Attestation{Replica: 1, Counter: 2, Value: 3, Digest: crypto.HashBytes([]byte("d"))}
	att.Attest(a)
	mine, theirs := auth.Verifier(), auth.Verifier()
	for _, mu := range []*sync.Mutex{&mine.keys[1].mu, &auth.keys[1].mu, &att.(*hmacAttestor).key.mu} {
		mu.Lock()
		defer mu.Unlock()
	}
	done := make(chan bool, 1)
	go func() { done <- theirs.Verify(a) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("a genuine attestation failed to verify")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a verifier waited on a lock another verifier or the signer holds")
	}
}

// TestAttestationIsOneAllocation: a component mints an attestation and its
// proof in one allocation.
func TestAttestationIsOneAllocation(t *testing.T) {
	auth := NewHMACAuthority(42, 4)
	tc := New(Config{Host: 1, Profile: ProfileSGXEnclave, Attestor: auth.For(1)})
	d := crypto.HashBytes([]byte("d"))
	var a *types.Attestation
	if allocs := testing.AllocsPerRun(100, func() { a, _ = tc.AppendF(0, d) }); allocs != 1 {
		t.Fatalf("AppendF allocates %v times, want 1", allocs)
	}
	if !auth.Verify(a) {
		t.Fatal("the attestation failed to verify")
	}
}

// TestHMACAuthorityProofsSurviveSharedState: a signer's keyed state and its
// scratch are shared by every goroutine that attests through it, and the
// authority's by every caller of its Verify; a proof an attestation keeps
// must not be overwritten by later use, from any goroutine.
func TestHMACAuthorityProofsSurviveSharedState(t *testing.T) {
	auth := NewHMACAuthority(42, 4)
	att := auth.For(1)
	mk := func(v uint64) *types.Attestation {
		a := &types.Attestation{Replica: 1, Value: v, Digest: crypto.HashBytes([]byte{byte(v)})}
		att.Attest(a)
		return a
	}
	first := mk(1)
	kept := append([]byte(nil), first.Proof...)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				a := mk(uint64(g*1000 + i + 2))
				if !auth.Verify(a) || !auth.Verify(first) {
					t.Error("genuine attestation rejected under concurrent use")
					return
				}
			}
		}()
	}
	wg.Wait()
	if string(first.Proof) != string(kept) {
		t.Fatal("a later signature or verification overwrote a kept proof")
	}
}

func TestAccessesAccounting(t *testing.T) {
	c, _ := newTestComponent(t, true, ProfileSGXEnclave)
	c.AppendF(0, types.ZeroDigest)
	c.Append(0, 0, types.ZeroDigest)
	c.Lookup(0, 1)
	c.Create(1, 0)
	if got := c.Accesses(); got != 4 {
		t.Fatalf("Accesses = %d, want 4", got)
	}
}

func TestConcurrentAppendFUniqueValues(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	values := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a, err := c.AppendF(0, types.ZeroDigest)
				if err != nil {
					t.Errorf("AppendF: %v", err)
					return
				}
				values[w] = append(values[w], a.Value)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, vs := range values {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d issued twice under concurrency", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("issued %d distinct values, want %d", len(seen), workers*per)
	}
}

// Property: no matter the sequence of valid Append/AppendF calls, attested
// values on a counter are strictly increasing — the core non-equivocation
// invariant every trust-bft protocol relies on.
func TestCounterMonotonicityProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		auth := NewHMACAuthority(1, 1)
		c := New(Config{Host: 0, Profile: ProfileSGXEnclave, Attestor: auth.For(0)})
		last := uint64(0)
		for _, op := range ops {
			var a *types.Attestation
			var err error
			if op%2 == 0 {
				a, err = c.AppendF(0, types.ZeroDigest)
			} else {
				a, err = c.Append(0, uint64(op), types.ZeroDigest)
			}
			if err != nil {
				continue // rejected non-monotonic request; state unchanged
			}
			if a.Value <= last {
				return false
			}
			last = a.Value
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Lookup always returns exactly what was appended at that slot,
// and slots are never silently overwritten by later appends.
func TestLogBindingProperty(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		auth := NewHMACAuthority(1, 1)
		c := New(Config{Host: 0, Profile: ProfileSGXEnclave, KeepLog: true, Attestor: auth.For(0)})
		want := make(map[uint64]types.Digest)
		for _, p := range payloads {
			d := crypto.HashBytes(p)
			a, err := c.Append(5, 0, d)
			if err != nil {
				return false
			}
			want[a.Value] = d
		}
		for k, d := range want {
			a, err := c.Lookup(5, k)
			if err != nil || a.Digest != d || !auth.Verify(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileWithAccessCost(t *testing.T) {
	orig := ProfileSGXEnclave.AccessCost
	p := ProfileSGXEnclave.WithAccessCost(3 * time.Millisecond)
	if p.AccessCost != 3*time.Millisecond {
		t.Fatalf("AccessCost = %v, want 3ms", p.AccessCost)
	}
	if p.Name != ProfileSGXEnclave.Name || ProfileSGXEnclave.AccessCost != orig {
		t.Fatal("WithAccessCost must not mutate the original profile")
	}
}

func TestCurrentReportsState(t *testing.T) {
	c, _ := newTestComponent(t, false, ProfileSGXEnclave)
	if _, _, err := c.Current(0); !errors.Is(err, ErrNoSuchCounter) {
		t.Fatalf("Current on missing counter err = %v, want ErrNoSuchCounter", err)
	}
	c.AppendF(0, types.ZeroDigest)
	c.AppendF(0, types.ZeroDigest)
	epoch, val, err := c.Current(0)
	if err != nil || epoch != 0 || val != 2 {
		t.Fatalf("Current = (%d,%d,%v), want (0,2,nil)", epoch, val, err)
	}
}
