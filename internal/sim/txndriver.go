package sim

import (
	"math/rand"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/metrics"
	"flexitrust/internal/types"
)

// TxnDriver runs cross-shard two-phase-commit clients against a
// MultiCluster's co-hosted consensus groups, inside the same discrete-event
// kernel. Each coordinator is a closed-loop client that:
//
//  1. fans OpTxnPrepare out to its participant groups (through each
//     group's client pool, so prepares ride the same batching, reply
//     quorums and resend machinery as every other request);
//  2. on the last vote, decides with ONE attested counter access on its
//     machine's trusted component — the commit point. The access
//     serializes on the machine's TC timeline, so co-hosted groups and
//     coordinators genuinely contend; with HostSeqCommitPoint (the
//     MinBFT-style discipline where every attested statement extends the
//     host's single totally-ordered stream) the access also retargets the
//     machine's stream tenancy, paying and forcing drain handoffs;
//  3. acknowledges at the decision point (2PC's irrevocability point —
//     the published attestation, not phase 2, is what commits) and then
//     drives OpTxnCommit to the participants before its loop continues.
//
// Decisions are minted through the machine's txn.Arbiter — a namespaced
// view of its component (txn.CoordinatorNamespace), exactly like the runtime
// transaction layer — so decision attestations are really minted and the
// one-access-per-decision accounting is measured, not asserted.
type TxnDriver struct {
	mc  *MultiCluster
	cfg TxnDriverConfig
	rng *rand.Rand

	collector *metrics.Collector
	// tenant is the stream-tenancy identity of the coordinator service (one
	// per machine, distinct from every group index).
	tenant int

	nextTxID uint64
	keySeq   uint64
	// nextReq tracks per-coordinator, per-group request numbers.
	nextReq [][]uint64

	decisions  uint64
	committed  uint64
	aborted    uint64
	multiShard uint64
	tcAccesses uint64
}

// TxnDriverConfig parameterizes the driver.
type TxnDriverConfig struct {
	// Coordinators is the number of closed-loop transaction clients.
	Coordinators int
	// MultiShardFraction is the probability a transaction spans two groups
	// (the rest touch one — still full 2PC, giving the single-shard
	// baseline the same commit-point cost).
	MultiShardFraction float64
	// WritesPerShard is the number of keys written on each participant
	// group (default 1).
	WritesPerShard int
	// HostSeqCommitPoint makes the decision access host-sequenced (the
	// MinBFT/USIG discipline); false models the FlexiTrust AppendF
	// discipline where namespaced counters interleave freely.
	HostSeqCommitPoint bool
	// Seed drives the driver's private randomness (participant and timing
	// choice). Derive with SubSeed so the driver never perturbs group RNGs.
	Seed int64
}

// AttachTxnDriver installs a transaction driver on the deployment; call
// before Run. Coordinator c's trusted counter lives on machine c mod M —
// coordinators are co-located with the consensus groups, which is the
// whole point of measuring the commit path on the shared kernel.
func (mc *MultiCluster) AttachTxnDriver(cfg TxnDriverConfig) *TxnDriver {
	if mc.txnDriver != nil {
		panic("sim: transaction driver already attached")
	}
	if cfg.Coordinators <= 0 {
		panic("sim: TxnDriverConfig.Coordinators must be positive")
	}
	if cfg.WritesPerShard <= 0 {
		cfg.WritesPerShard = 1
	}
	d := &TxnDriver{
		mc:        mc,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed + 5)),
		collector: metrics.NewCollector(1 << 20),
		tenant:    len(mc.groups),
		nextReq:   make([][]uint64, cfg.Coordinators),
	}
	for c := range d.nextReq {
		d.nextReq[c] = make([]uint64, len(mc.groups))
	}
	mc.txnDriver = d
	return d
}

// driverTxn is one in-flight transaction's coordinator state.
type driverTxn struct {
	coord   int
	start   time.Duration
	groups  []int
	pending int
	abort   bool
	txid    uint64
}

// start launches every coordinator's first transaction, staggered over the
// ramp window like the closed-loop pools.
func (d *TxnDriver) start(rampOver time.Duration) {
	step := rampOver / time.Duration(d.cfg.Coordinators)
	for c := 0; c < d.cfg.Coordinators; c++ {
		c := c
		d.mc.schedule(&event{at: d.mc.now + time.Duration(c)*step, kind: evFunc,
			fn: func() { d.beginTxn(c) }})
	}
}

// beginTxn picks participants and fans the prepares out.
func (d *TxnDriver) beginTxn(c int) {
	s := len(d.mc.groups)
	var groups []int
	if s > 1 && d.rng.Float64() < d.cfg.MultiShardFraction {
		g1 := d.rng.Intn(s)
		g2 := (g1 + 1 + d.rng.Intn(s-1)) % s
		groups = []int{g1, g2}
		d.multiShard++
	} else {
		groups = []int{d.rng.Intn(s)}
	}
	d.nextTxID++
	st := &driverTxn{coord: c, start: d.mc.now, groups: groups, pending: len(groups), txid: d.nextTxID}
	for _, g := range groups {
		writes := make([]kvstore.TxnWrite, d.cfg.WritesPerShard)
		for i := range writes {
			d.keySeq++
			// Fresh keys above every workload's record space: driver
			// transactions never conflict with each other or with the
			// background load, so aborts measure protocol behavior, not
			// key-picking luck.
			writes[i] = kvstore.TxnWrite{Key: 1<<40 + d.keySeq, Code: kvstore.OpInsert, Value: []byte("tx")}
		}
		g := g
		prep, err := kvstore.EncodeTxnPrepare(st.txid, writes)
		if err != nil {
			panic("sim: txn prepare encode failed: " + err.Error())
		}
		d.submit(c, g, prep, func(val []byte) {
			d.onVote(st, string(val))
		})
	}
}

// submit routes one operation into group g's consensus through its client
// pool, as external client `numClients+1+c` of that pool.
func (d *TxnDriver) submit(c, g int, op *kvstore.Op, cb func([]byte)) {
	pool := d.mc.groups[g].pool
	d.nextReq[c][g]++
	pool.submitExternal(types.ClientID(pool.numClients+1+c), d.nextReq[c][g], op.Encode(), cb)
}

// onVote collects one participant's phase-1 result; the last vote triggers
// the attested decision.
func (d *TxnDriver) onVote(st *driverTxn, vote string) {
	if vote != kvstore.TxnPrepared {
		st.abort = true
	}
	st.pending--
	if st.pending > 0 {
		return
	}
	commit := !st.abort

	// The commit point: one attested counter access on the coordinator's
	// machine, serialized on (and occupying) the machine's TC timeline.
	mi := st.coord % len(d.mc.machines)
	finish := d.mc.machines[mi].tcAccess(d.mc.now, d.tenant, d.cfg.HostSeqCommitPoint)
	if _, err := d.mc.arbiters()[mi].Decide(st.txid, commit); err != nil {
		panic("sim: decision append failed: " + err.Error())
	}
	d.tcAccesses++
	d.decisions++
	if commit {
		d.committed++
	} else {
		d.aborted++
	}

	// The transaction is irrevocable when the attested decision exists:
	// latency is client-observed at the decision point. Phase 2 still runs
	// before this coordinator's loop continues.
	d.mc.schedule(&event{at: finish, kind: evFunc, fn: func() {
		d.collector.Record(d.mc.now, d.mc.now-st.start)
		st.pending = len(st.groups)
		for _, g := range st.groups {
			g := g
			d.submit(st.coord, g, kvstore.EncodeTxnDecision(commit, st.txid, 0), func([]byte) {
				st.pending--
				if st.pending == 0 {
					d.beginTxn(st.coord)
				}
			})
		}
	}})
}

// TxnResults summarizes the driver's measurement window (plus whole-run
// decision accounting).
type TxnResults struct {
	// Throughput and the latencies cover decisions inside the measurement
	// window; latency is measured to the attested decision point.
	Throughput float64
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	Completed  uint64
	// Whole-run accounting: every decision must have cost exactly one
	// attested counter access (Decisions == TCAccesses).
	Decisions  uint64
	Committed  uint64
	Aborted    uint64
	MultiShard uint64
	TCAccesses uint64
}

// Results summarizes the driver after a Run with the given measurement
// window length.
func (d *TxnDriver) Results(measure time.Duration) TxnResults {
	return TxnResults{
		Throughput: d.collector.Throughput(measure),
		MeanLat:    d.collector.MeanLatency(),
		P50Lat:     d.collector.Percentile(50),
		P99Lat:     d.collector.Percentile(99),
		Completed:  d.collector.Completed(),
		Decisions:  d.decisions,
		Committed:  d.committed,
		Aborted:    d.aborted,
		MultiShard: d.multiShard,
		TCAccesses: d.tcAccesses,
	}
}
