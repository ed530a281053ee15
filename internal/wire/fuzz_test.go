package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// allocatedBytes reports the heap bytes fn allocates. Other goroutines of the
// test binary allocate too, so a reading above limit is taken again, and the
// smallest of up to three counts.
func allocatedBytes(limit uint64, fn func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for try := 0; try < 3 && least > limit; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// maxExpansion bounds decoded heap bytes per frame byte. The worst case is a
// body of empty PreparedProofs: 4 bytes each on the wire, an 80-byte struct
// and an 8-byte pointer in memory, plus the allocator's size-class rounding.
const maxExpansion = 32

// FuzzDecode feeds the decoder arbitrary frames, seeded with the golden
// vector of every message kind and with Responses of 0 to 3 results, so both
// the inline one-result slot and a slice of its own are in the corpus.
// Whatever the input: no panic; no allocation beyond a constant multiple of
// the frame's length (a hostile length or count must be refused before it
// sizes anything); and an accepted frame re-encodes to exactly the bytes it
// was decoded from.
func FuzzDecode(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}
	for n := range 4 {
		f.Add(mustEncode(f, responseWith(n)))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		env, err := Decode(frame)
		limit := uint64(maxExpansion*len(frame) + 2048)
		if got := allocatedBytes(limit, func() { Decode(frame) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(frame), got, limit)
		}
		if err != nil {
			return
		}
		again, err := Encode(env)
		if err != nil {
			t.Fatalf("decoded envelope does not encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("Encode(Decode(f)) != f:\n  f   %x\n  got %x", frame, again)
		}
		if read, err := ReadFrame(stream(frame)); err != nil || !sameEnvelope(env, read) {
			t.Fatalf("ReadFrame disagrees with Decode: %v", err)
		}
	})
}
