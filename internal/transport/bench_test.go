package transport

import (
	"testing"

	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// The transport layer's numbers without the full benchmark:
//
//	go test -run '^$' -bench . -benchmem ./internal/transport

// tcpPair returns a listening replica 0 and a replica 1 that knows its address.
func tcpPair(b *testing.B) (*TCPTransport, *TCPTransport) {
	b.Helper()
	a, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	peer, err := NewTCP(ReplicaAddr(1), "127.0.0.1:0", map[int32]string{0: a.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { peer.Close() })
	return a, peer
}

// BenchmarkTCPRoundTrip is one Prepare out and one Commit back over loopback:
// two encodes, two socket writes, two reads, two decodes.
func BenchmarkTCPRoundTrip(b *testing.B) {
	a, peer := tcpPair(b)
	a.SetHandler(func(*wire.Envelope) {
		a.Send(ReplicaAddr(1), &wire.Envelope{From: 0, Msg: &types.Commit{View: 1, Seq: 9}})
	})
	back := make(chan struct{}, 1)
	peer.SetHandler(func(*wire.Envelope) { back <- struct{}{} })
	b.ReportAllocs()
	for b.Loop() {
		peer.Send(ReplicaAddr(0), &wire.Envelope{From: 1, Msg: &types.Prepare{View: 1, Seq: 9, Replica: 1}})
		<-back
	}
}

// BenchmarkTCPBroadcast3 sends one envelope — a Preprepare carrying a batch
// of 16 signed requests — to three peers and waits for all three to deliver
// it: the primary's fan-out. Each Send encodes into a pooled buffer, so the
// allocations are the three peers' decodes and what the loop builds.
func BenchmarkTCPBroadcast3(b *testing.B) {
	const peers = 3
	book := make(map[int32]string, peers)
	arrived := make(chan struct{}, peers)
	for id := int32(1); id <= peers; id++ {
		p, err := NewTCP(ReplicaAddr(id), "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { p.Close() })
		p.SetHandler(func(*wire.Envelope) { arrived <- struct{}{} })
		book[id] = p.Addr()
	}
	primary, err := NewTCP(ReplicaAddr(0), "127.0.0.1:0", book)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { primary.Close() })

	batch := &types.Batch{}
	for i := 0; i < 16; i++ {
		batch.Requests = append(batch.Requests, &types.ClientRequest{Client: types.ClientID(i + 1),
			ReqNo: 7, Op: make([]byte, 21), Timestamp: 1, Sig: make([]byte, 64)})
	}
	pp := &types.Preprepare{View: 1, Seq: 9, Batch: batch, Sig: make([]byte, 64),
		Attest: &types.Attestation{Counter: 1, Value: 9, Proof: make([]byte, 32)}}
	b.ReportAllocs()
	for b.Loop() {
		env := &wire.Envelope{From: 0, Msg: pp}
		for id := int32(1); id <= peers; id++ {
			primary.Send(ReplicaAddr(id), env)
		}
		for i := 0; i < peers; i++ {
			<-arrived
		}
	}
}
