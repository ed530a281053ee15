package wire

import "testing"

// The per-kind cost of the codec on the sample envelopes, so the layer's
// numbers are reproducible without the full benchmark:
//
//	go test -run '^$' -bench . -benchmem ./internal/wire

func BenchmarkEncode(b *testing.B) {
	for _, env := range sampleEnvelopes() {
		b.Run(env.Msg.Type().String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(mustEncode(b, env))))
			for b.Loop() {
				Encode(env)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, env := range sampleEnvelopes() {
		frame := mustEncode(b, env)
		b.Run(env.Msg.Type().String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				Decode(frame)
			}
		})
	}
}
