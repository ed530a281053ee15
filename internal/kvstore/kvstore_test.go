package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"flexitrust/internal/crypto"
	"flexitrust/internal/types"
)

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	ops := []*Op{
		{Code: OpRead, Key: 42},
		{Code: OpUpdate, Key: 1, Value: []byte("hello")},
		{Code: OpInsert, Key: 1 << 40, Value: []byte("x")},
		{Code: OpScan, Key: 10, Count: 16},
		{Code: OpRMW, Key: 3, Value: []byte{0xff, 0x00}},
		{Code: OpNoop},
	}
	for _, op := range ops {
		got, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatalf("decode %v: %v", op.Code, err)
		}
		if got.Code != op.Code || got.Key != op.Key || got.Count != op.Count ||
			!bytes.Equal(got.Value, op.Value) {
			t.Fatalf("roundtrip: got %+v want %+v", got, op)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append((&Op{Code: OpUpdate, Key: 1, Value: []byte("abc")}).Encode(), 0xEE), // trailing junk
	}
	for i, c := range cases {
		if _, err := DecodeOp(c); err == nil {
			t.Fatalf("case %d: malformed op decoded", i)
		}
	}
}

func TestLazyDefaultRecords(t *testing.T) {
	s := New(100)
	// Unwritten key below recordCount reads its deterministic default.
	v1 := s.Apply((&Op{Code: OpRead, Key: 5}).Encode())
	v2 := New(100).Apply((&Op{Code: OpRead, Key: 5}).Encode())
	if !bytes.Equal(v1, v2) {
		t.Fatal("default values differ between identical stores")
	}
	// Beyond recordCount: not found.
	if got := s.Apply((&Op{Code: OpRead, Key: 100}).Encode()); string(got) != "NOTFOUND" {
		t.Fatalf("read past end = %q", got)
	}
	// Update of an existing default key persists.
	if got := s.Apply((&Op{Code: OpUpdate, Key: 5, Value: []byte("new")}).Encode()); string(got) != "OK" {
		t.Fatalf("update = %q", got)
	}
	if got := s.Apply((&Op{Code: OpRead, Key: 5}).Encode()); string(got) != "new" {
		t.Fatalf("read after update = %q", got)
	}
	// Update of a missing key fails, insert succeeds.
	if got := s.Apply((&Op{Code: OpUpdate, Key: 500, Value: []byte("x")}).Encode()); string(got) != "NOTFOUND" {
		t.Fatalf("update missing = %q", got)
	}
	if got := s.Apply((&Op{Code: OpInsert, Key: 500, Value: []byte("x")}).Encode()); string(got) != "OK" {
		t.Fatalf("insert = %q", got)
	}
}

func TestMalformedOpIsDeterministicError(t *testing.T) {
	s := New(10)
	if got := s.Apply([]byte{9, 9}); string(got) != "ERR" {
		t.Fatalf("malformed op = %q, want ERR", got)
	}
}

func TestApplyBatchAdvancesStateDigest(t *testing.T) {
	s := New(10)
	reqs := []*types.ClientRequest{
		{Client: 1, ReqNo: 1, Op: (&Op{Code: OpUpdate, Key: 1, Value: []byte("a")}).Encode()},
	}
	b := &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)}
	before := s.StateDigest()
	results := s.ApplyBatch(b)
	if s.StateDigest() == before {
		t.Fatal("state digest did not advance")
	}
	if len(results) != 1 || string(results[0].Value) != "OK" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Client != 1 || results[0].ReqNo != 1 {
		t.Fatal("result not attributed to the request")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New(10)
	s.Apply((&Op{Code: OpUpdate, Key: 1, Value: []byte("one")}).Encode())
	snap := s.Snapshot()
	digest := s.StateDigest()
	s.Apply((&Op{Code: OpUpdate, Key: 1, Value: []byte("two")}).Encode())
	s.Apply((&Op{Code: OpInsert, Key: 99, Value: []byte("x")}).Encode())
	s.Restore(snap)
	if s.StateDigest() != digest {
		t.Fatal("digest not restored")
	}
	if got := s.Apply((&Op{Code: OpRead, Key: 1}).Encode()); string(got) != "one" {
		t.Fatalf("restored value = %q", got)
	}
}

// Property: two stores applying the same operation sequence always hold
// identical state digests — execution determinism, which is what checkpoint
// comparison and the safety tests rely on.
func TestDeterministicExecutionProperty(t *testing.T) {
	prop := func(keys []uint16, vals [][]byte) bool {
		a, b := New(1000), New(1000)
		var batch []*types.ClientRequest
		for i, k := range keys {
			var val []byte
			if i < len(vals) {
				val = vals[i]
			}
			op := &Op{Code: OpCode(1 + i%5), Key: uint64(k), Value: val, Count: uint16(i % 8)}
			batch = append(batch, &types.ClientRequest{Client: 1, ReqNo: uint64(i), Op: op.Encode()})
		}
		bb := &types.Batch{Requests: batch, Digest: crypto.BatchDigest(batch)}
		ra := a.ApplyBatch(bb)
		rb := b.ApplyBatch(bb)
		if a.StateDigest() != b.StateDigest() {
			return false
		}
		for i := range ra {
			if !bytes.Equal(ra[i].Value, rb[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is an exact inverse across arbitrary suffixes.
func TestSnapshotRestoreProperty(t *testing.T) {
	prop := func(prefix, suffix []uint16) bool {
		s := New(100)
		for i, k := range prefix {
			s.Apply((&Op{Code: OpUpdate, Key: uint64(k % 100), Value: []byte{byte(i)}}).Encode())
		}
		snap := s.Snapshot()
		want := s.StateDigest()
		for i, k := range suffix {
			s.Apply((&Op{Code: OpInsert, Key: uint64(k) + 1000, Value: []byte{byte(i)}}).Encode())
		}
		s.Restore(snap)
		return s.StateDigest() == want && s.WrittenKeys() <= len(prefix)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyHashSpreadsDenseKeys pins the canonical key hash: it must be a pure
// function (stable across processes — shard routing depends on it) and must
// spread dense integer keys across the value space rather than preserving
// their low bits.
func TestKeyHashSpreadsDenseKeys(t *testing.T) {
	if KeyHash(0) == 0 || KeyHash(1) == 1 {
		t.Fatal("KeyHash looks like identity on small keys")
	}
	if KeyHash(7) != KeyHash(7) {
		t.Fatal("KeyHash is not deterministic")
	}
	// Dense keys must not collide and must populate both halves of the
	// 64-bit space (a low-bit-preserving hash would keep them all small).
	seen := make(map[uint64]bool)
	high := 0
	for k := uint64(0); k < 4096; k++ {
		h := KeyHash(k)
		if seen[h] {
			t.Fatalf("collision at key %d", k)
		}
		seen[h] = true
		if h >= 1<<63 {
			high++
		}
	}
	if high < 4096/4 || high > 3*4096/4 {
		t.Fatalf("dense keys skewed: %d/4096 hashes in the high half", high)
	}
}

// TestWriteAllocatesOnlyTheStoredValue: a successful write allocates the copy
// of the value it keeps and nothing for its result, which every replica
// computes for every write.
func TestWriteAllocatesOnlyTheStoredValue(t *testing.T) {
	s := New(100)
	for _, op := range []*Op{
		{Code: OpUpdate, Key: 7, Value: []byte("v")},
		{Code: OpInsert, Key: 200, Value: []byte("v")},
	} {
		enc := op.Encode()
		if got := string(s.Apply(enc)); got != "OK" {
			t.Fatalf("op %d answered %q", op.Code, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Apply(enc) }); allocs != 1 {
			t.Fatalf("op %d: %.0f allocations per write, want 1 (the stored value)", op.Code, allocs)
		}
	}
}
