// Package workload generates YCSB-style key-value workloads: operation mixes
// over a Zipfian or uniform key distribution, matching the paper's evaluation
// setup (YCSB over 600k records).
package workload

import (
	"math"
	"math/rand"
	"sync"

	"flexitrust/internal/kvstore"
)

// Mix gives the probability of each operation type. Fields should sum to 1;
// any remainder goes to reads.
type Mix struct {
	ReadFraction   float64
	UpdateFraction float64
	InsertFraction float64
	ScanFraction   float64
	RMWFraction    float64
}

// YCSBA is the update-heavy mix (50/50 read/update) used for the paper's
// throughput experiments.
var YCSBA = Mix{ReadFraction: 0.5, UpdateFraction: 0.5}

// YCSBB is the read-mostly mix (95/5).
var YCSBB = Mix{ReadFraction: 0.95, UpdateFraction: 0.05}

// YCSBC is read-only.
var YCSBC = Mix{ReadFraction: 1.0}

// Config parameterizes a generator.
type Config struct {
	Records   int // key space size (paper: 600_000)
	Mix       Mix
	Zipfian   bool    // Zipfian (true) vs uniform key choice
	ZipfTheta float64 // Zipfian skew; YCSB default 0.99
	ValueSize int     // bytes per written value
	Seed      int64
}

// DefaultConfig returns the paper's evaluation workload.
func DefaultConfig() Config {
	return Config{
		Records:   600_000,
		Mix:       YCSBA,
		Zipfian:   true,
		ZipfTheta: 0.99,
		ValueSize: 8,
		Seed:      1,
	}
}

// ReadHeavy returns the default workload with the read fraction raised to
// frac (the remainder updates): the operating point where the leased-read
// fast path pays off. frac is clamped to [0, 1].
func ReadHeavy(frac float64) Config {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	cfg := DefaultConfig()
	cfg.Mix = Mix{ReadFraction: frac, UpdateFraction: 1 - frac}
	return cfg
}

// Generator produces operations. Not safe for concurrent use; give each
// client pool its own generator.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *zipfGen
	val  []byte
}

// NewGenerator builds a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Records <= 0 {
		cfg.Records = 1
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		val: make([]byte, cfg.ValueSize),
	}
	if cfg.Zipfian {
		g.zipf = newZipfGen(g.rng, uint64(cfg.Records), cfg.ZipfTheta)
	}
	for i := range g.val {
		g.val[i] = byte(i)
	}
	return g
}

// NextKey draws a key from the configured distribution.
func (g *Generator) NextKey() uint64 {
	if g.zipf != nil {
		return g.zipf.next()
	}
	return uint64(g.rng.Intn(g.cfg.Records))
}

// Next produces the next operation, encoded and ready to be wrapped in a
// client request. The encoding is its one allocation.
func (g *Generator) Next() []byte {
	op := g.nextOp()
	return op.Encode()
}

// nextOp draws the next operation.
func (g *Generator) nextOp() kvstore.Op {
	p := g.rng.Float64()
	m := g.cfg.Mix
	key := g.NextKey()
	switch {
	case p < m.UpdateFraction:
		return kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: g.val}
	case p < m.UpdateFraction+m.InsertFraction:
		return kvstore.Op{Code: kvstore.OpInsert, Key: uint64(g.cfg.Records) + uint64(g.rng.Int63n(1<<40)), Value: g.val}
	case p < m.UpdateFraction+m.InsertFraction+m.ScanFraction:
		return kvstore.Op{Code: kvstore.OpScan, Key: key, Count: uint16(1 + g.rng.Intn(32))}
	case p < m.UpdateFraction+m.InsertFraction+m.ScanFraction+m.RMWFraction:
		return kvstore.Op{Code: kvstore.OpRMW, Key: key, Value: g.val}
	default:
		return kvstore.Op{Code: kvstore.OpRead, Key: key}
	}
}

// zipfGen implements the Gray et al. quick Zipfian generator used by YCSB
// (math/rand's Zipf has a different parameterization and no theta=0.99
// support across arbitrary ranges, so we implement the standard one).
type zipfGen struct {
	rng               *rand.Rand
	n                 uint64
	theta             float64
	alpha, zetan, eta float64
	zeta2             float64
}

// newZipfGen precomputes the YCSB zipfian constants for n items.
func newZipfGen(rng *rand.Rand, n uint64, theta float64) *zipfGen {
	z := &zipfGen{rng: rng, n: n, theta: theta}
	z.zeta2 = zeta(2, theta)
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetas memoizes zeta by {n, theta}: every generator over the same key
// space shares one O(n) sum.
var zetas sync.Map

// zeta computes the n-th generalized harmonic number of order theta — 600k
// math.Pow terms for the paper's key space — once per process.
func zeta(n uint64, theta float64) float64 {
	key := [2]float64{float64(n), theta}
	if z, ok := zetas.Load(key); ok {
		return z.(float64)
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetas.Store(key, sum)
	return sum
}

// next draws the next Zipfian-distributed item in [0, n).
func (z *zipfGen) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
