package main

import (
	"encoding/binary"
	"math/rand"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/workload"
)

// Every input the system sees is generated here, during set-up, from the
// run's seed: the same seed gives the same op streams, key partitions and
// cross-shard pairs.

// kvOp is one pregenerated operation of the replicated-store workloads.
type kvOp struct {
	enc   []byte // the encoded kvstore.Op handed to Client.Submit
	key   uint64
	write bool
	tag   uint64 // the value an update writes, unique per (client, index)
}

// kvStreamOps is the number of operations pregenerated across all clients of
// a replicated-store workload: above what the fastest run here consumes in
// its window (a client that does run out wraps around its own stream).
const kvStreamOps = 1 << 19

// buildKVStreams draws per-client op streams from ONE workload.Generator, so
// the Zipf table (600k zeta terms) is computed once and shared: 256
// per-goroutine generators would spend seconds of the window building it.
// The mix, skew and record count are workload.DefaultConfig's; the only edit
// is that each update carries a unique 8-byte value, which is what lets the
// read-back check tell a lost write from a surviving one.
func buildKVStreams(seed int64, clients int) [][]kvOp {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	gen := workload.NewGenerator(cfg)
	per := kvStreamOps / clients
	streams := make([][]kvOp, clients)
	var op kvstore.Op
	for c := range streams {
		stream := make([]kvOp, per)
		for i := range stream {
			raw := gen.Next()
			if err := op.Decode(raw); err != nil {
				panic(err) // the generator's own encoding: only a bug can get here
			}
			o := kvOp{enc: raw, key: op.Key}
			if op.Code == kvstore.OpUpdate {
				o.write = true
				o.tag = uint64(c+1)<<32 | uint64(i+1)
				op.Value = binary.BigEndian.AppendUint64(nil, o.tag)
				o.enc = op.Encode()
			}
			stream[i] = o
		}
		streams[c] = stream
	}
	return streams
}

// Session operation kinds of the sharded workloads.
const (
	sessGet = iota
	sessPut
	sessMultiPut
)

// sessOp is one pregenerated session operation. slot indexes the session's
// own key partition; slot2 is the second key of a cross-shard MultiPut.
type sessOp struct {
	kind  uint8
	slot  int32
	slot2 int32
}

// sessMix is a sharded workload's operation mix (the remainder is Gets).
type sessMix struct{ put, multiPut float64 }

const (
	sessRecords   = 100_000
	sessStreamOps = 1 << 15 // per session; wraps if a session outruns it
)

// sessionKeys returns session s's disjoint key partition of the record space:
// every key k with k mod sessions == s. Disjoint partitions mean a session
// is the only writer of the keys it reads, so there are no intent conflicts
// and every Get has exactly one acceptable answer.
func sessionKeys(s, sessions int) []uint64 {
	keys := make([]uint64, 0, sessRecords/sessions+1)
	for k := s; k < sessRecords; k += sessions {
		keys = append(keys, uint64(k))
	}
	return keys
}

// buildSessionStream draws one session's op stream: keys uniform over its
// partition. pairs, when the mix has MultiPuts, lists the slot pairs of the
// partition that span both groups (see crossShardPairs).
func buildSessionStream(seed int64, s int, keys []uint64, mix sessMix, pairs [][2]int32) []sessOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(s)))
	ops := make([]sessOp, sessStreamOps)
	for i := range ops {
		p := rng.Float64()
		switch {
		case p < mix.multiPut && len(pairs) > 0:
			pr := pairs[rng.Intn(len(pairs))]
			ops[i] = sessOp{kind: sessMultiPut, slot: pr[0], slot2: pr[1]}
		case p < mix.multiPut+mix.put:
			ops[i] = sessOp{kind: sessPut, slot: int32(rng.Intn(len(keys)))}
		default:
			ops[i] = sessOp{kind: sessGet, slot: int32(rng.Intn(len(keys)))}
		}
	}
	return ops
}

// crossShardPairs pairs up the slots of one partition so that each pair's
// keys live on different groups under shardFor — every MultiPut built from a
// pair is a genuine two-participant transaction.
func crossShardPairs(keys []uint64, shardFor func(uint64) int) [][2]int32 {
	var on [2][]int32
	for slot, k := range keys {
		if g := shardFor(k); g < 2 {
			on[g] = append(on[g], int32(slot))
		}
	}
	n := len(on[0])
	if len(on[1]) < n {
		n = len(on[1])
	}
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{on[0][i], on[1][i]}
	}
	return pairs
}
