package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"flexitrust/internal/kvstore"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, b := NewGenerator(cfg), NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if string(a.Next()) != string(b.Next()) {
			t.Fatalf("generators with identical seeds diverged at op %d", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c := NewGenerator(cfg2)
	same := 0
	for i := 0; i < 100; i++ {
		if string(NewGenerator(cfg).Next()) == string(c.Next()) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestKeysWithinRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 1000
	g := NewGenerator(cfg)
	for i := 0; i < 10000; i++ {
		if k := g.NextKey(); k >= 1000 {
			t.Fatalf("key %d outside record space", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 10000
	g := NewGenerator(cfg)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[g.NextKey()]++
	}
	// YCSB zipfian with theta=0.99: the hottest key takes several percent
	// of accesses; uniform would give 0.01%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.01 {
		t.Fatalf("hottest key only %.4f%% of draws; zipfian skew missing", 100*float64(max)/draws)
	}
	// And the tail is still covered (not degenerate).
	if len(counts) < 1000 {
		t.Fatalf("only %d distinct keys drawn; distribution degenerate", len(counts))
	}
}

func TestUniformSpread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 1000
	cfg.Zipfian = false
	g := NewGenerator(cfg)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		counts[g.NextKey()]++
	}
	for k, c := range counts {
		if c > 500 { // uniform expectation 100, generous bound
			t.Fatalf("key %d drawn %d times under uniform distribution", k, c)
		}
	}
}

func TestMixProportions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mix = Mix{ReadFraction: 0.5, UpdateFraction: 0.5}
	g := NewGenerator(cfg)
	reads, updates, other := 0, 0, 0
	for i := 0; i < 20000; i++ {
		op, err := kvstore.DecodeOp(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		switch op.Code {
		case kvstore.OpRead:
			reads++
		case kvstore.OpUpdate:
			updates++
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("%d ops outside the 50/50 read/update mix", other)
	}
	ratio := float64(reads) / float64(reads+updates)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("read fraction %.3f, want ~0.5", ratio)
	}
}

// Property: every generated operation decodes successfully — the state
// machine never sees malformed input from the workload.
func TestGeneratedOpsAlwaysDecode(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Mix = Mix{ReadFraction: 0.3, UpdateFraction: 0.3, InsertFraction: 0.2, ScanFraction: 0.1, RMWFraction: 0.1}
		g := NewGenerator(cfg)
		for i := 0; i < int(n); i++ {
			if _, err := kvstore.DecodeOp(g.Next()); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultStreamGolden pins the op stream of DefaultConfig at seed 1: the
// SHA-256 of its first 2×2¹⁹ encoded ops, which the wall-clock benchmark's
// kv workloads draw. A generator change that alters one op changes it.
func TestDefaultStreamGolden(t *testing.T) {
	const want = "894a2e677b5f88549461897c8562f199dd985d78bbaedaefae43275902d87310"
	g := NewGenerator(DefaultConfig())
	h := sha256.New()
	for i := 0; i < 2<<19; i++ {
		h.Write(g.Next())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("seed-1 stream hashes to %s, want %s", got, want)
	}
}

// TestNextAllocatesOnlyTheEncoding: drawing an op allocates its encoding and
// nothing else, and the memoized Zipf constant is the sum itself.
func TestNextAllocatesOnlyTheEncoding(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 1 {
		t.Fatalf("Next allocates %.1f, want 1", n)
	}
	if first, again := zeta(1000, 0.99), zeta(1000, 0.99); first != again || first < 1 {
		t.Fatalf("zeta(1000, 0.99) reads %v, then %v", first, again)
	}
}
