package crypto

import "testing"

func TestVerifyMemoBounded(t *testing.T) {
	m := NewVerifyMemo(64)
	for i := 0; i < 1000; i++ {
		m.Record(MemoKey{Kind: KindSig, Value: uint64(i)})
	}
	// Two generations of at most cap/2 entries each.
	live := 0
	for i := 0; i < 1000; i++ {
		if m.Seen(MemoKey{Kind: KindSig, Value: uint64(i)}) {
			live++
		}
	}
	if live > 64 {
		t.Fatalf("%d entries live, capacity 64", live)
	}
	// The most recent insert always survives.
	if !m.Seen(MemoKey{Kind: KindSig, Value: 999}) {
		t.Fatal("most recent entry evicted")
	}
	// Nil memo is a valid always-miss cache.
	var nilMemo *VerifyMemo
	nilMemo.Record(MemoKey{})
	if nilMemo.Seen(MemoKey{}) {
		t.Fatal("nil memo reported a hit")
	}
}
