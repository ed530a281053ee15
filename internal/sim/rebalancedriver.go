package sim

import (
	"math/rand"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/txn"
	"flexitrust/internal/types"
)

// RebalanceDriver runs a live range handoff between two of a MultiCluster's
// co-hosted consensus groups, inside the same discrete-event kernel, and
// measures what the migration costs the keys being moved. It mirrors the
// runtime orchestrator (internal/shard/rebalance.go) op for op:
//
//  1. at the configured virtual time it submits OpRangeFreeze to the source
//     group (through the group's client pool, so the freeze rides the same
//     batching and reply-quorum machinery as every other request) and, on
//     the deterministic export it returns, streams OpRangeInstall chunks
//     into the destination group's consensus;
//  2. the flip is ONE attested counter access on the orchestrator machine's
//     trusted component binding the new placement's epoch and digest
//     (txn.PlacementDecisionDigest) — serialized on the machine's TC
//     timeline, with the optional host-sequenced discipline paying and
//     forcing stream drains exactly like MinBFT's commit points do;
//  3. the commit decision then drives to both groups, the source releasing
//     the range and the destination claiming it.
//
// Availability is measured by closed-loop PROBE writers whose keys hash
// into the migrating range. Probes route by the driver's placement — the
// source before the flip, the destination after — and when a store refuses
// a write (RangeMigrating while frozen, WrongShard after release) the probe
// retries after a short backoff, accumulating latency from its first
// attempt. The probes' pre/dip/post windows are the availability dip and
// the steady-state recovery the rebalance row of harness.Experiments()
// reports.
type RebalanceDriver struct {
	mc  *MultiCluster
	cfg RebalanceDriverConfig
	rng *rand.Rand

	arb    []trusted.Component
	tenant int

	owner   int // group probes route to (From until the flip lands)
	epoch   uint64
	hid     uint64
	nextReq [][]uint64
	keySeq  uint64

	winStart, winEnd time.Duration
	freezeAt, flipAt time.Duration
	movedRecords     int
	installChunks    int
	tcAccesses       uint64
	retries          uint64
	driven           int

	pre, dip, post windowStats
}

// windowStats accumulates probe completions for one phase of the run.
type windowStats struct {
	n   uint64
	sum time.Duration
	max time.Duration
}

func (w *windowStats) add(lat time.Duration) {
	w.n++
	w.sum += lat
	if lat > w.max {
		w.max = lat
	}
}

// Mean returns the window's mean latency.
func (w windowStats) Mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	return w.sum / time.Duration(w.n)
}

// RebalanceDriverConfig parameterizes the driver.
type RebalanceDriverConfig struct {
	// From and To are the source and destination group indices.
	From, To int
	// Range is the hash interval migrated (the source's written records
	// whose key hash falls inside it move to the destination).
	Range kvstore.HashRange
	// StartAt is the virtual time the handoff begins; 0 defaults to
	// warmup + measure/3 (mid-window, so pre and post both observe steady
	// state).
	StartAt time.Duration
	// Probes is the number of closed-loop probe writers targeting keys in
	// the migrating range (default 8).
	Probes int
	// RetryDelay is the probe backoff after a refused write (default
	// 200µs).
	RetryDelay time.Duration
	// HostSeqCommitPoint makes the flip's decision access host-sequenced
	// (the MinBFT/USIG discipline); false is the FlexiTrust AppendF
	// discipline.
	HostSeqCommitPoint bool
	// Seed drives the driver's private randomness. Derive with SubSeed so
	// the driver never perturbs group RNGs.
	Seed int64
}

// AttachRebalanceDriver installs a rebalance driver on the deployment; call
// before Run.
func (mc *MultiCluster) AttachRebalanceDriver(cfg RebalanceDriverConfig) *RebalanceDriver {
	if mc.rebDriver != nil {
		panic("sim: rebalance driver already attached")
	}
	if cfg.From == cfg.To || cfg.From < 0 || cfg.To < 0 ||
		cfg.From >= len(mc.groups) || cfg.To >= len(mc.groups) {
		panic("sim: RebalanceDriverConfig needs two distinct valid groups")
	}
	if cfg.Range.Start > cfg.Range.End {
		panic("sim: RebalanceDriverConfig.Range is empty")
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 8
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 200 * time.Microsecond
	}
	d := &RebalanceDriver{
		mc:     mc,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 11)),
		tenant: len(mc.groups) + 1, // distinct from every group and the txn driver
		owner:  cfg.From,
		epoch:  1,
		// Handoff ids must not collide with the txn driver's sequential
		// ids when both are attached.
		hid:     1 << 48,
		nextReq: make([][]uint64, cfg.Probes),
	}
	for c := range d.nextReq {
		d.nextReq[c] = make([]uint64, len(mc.groups))
	}
	for _, m := range mc.machines {
		d.arb = append(d.arb, trusted.Namespaced(m.tc, txn.CoordinatorNamespace))
	}
	mc.obsv.Audit().RegisterDecisionNamespace(txn.CoordinatorNamespace)
	mc.rebDriver = d
	return d
}

// start launches the probes (staggered over the ramp) and schedules the
// handoff.
func (d *RebalanceDriver) start(rampOver, warmup, measure time.Duration) {
	d.winStart, d.winEnd = warmup, warmup+measure
	startAt := d.cfg.StartAt
	if startAt == 0 {
		startAt = warmup + measure/3
	}
	step := rampOver / time.Duration(d.cfg.Probes)
	for c := 0; c < d.cfg.Probes; c++ {
		c := c
		d.mc.schedule(&event{at: d.mc.now + time.Duration(c)*step, kind: evFunc,
			fn: func() { d.probe(c, d.nextProbeKey(), d.mc.now) }})
	}
	d.mc.schedule(&event{at: startAt, kind: evFunc, fn: d.startHandoff})
}

// nextProbeKey returns a fresh key whose hash falls in the migrating range.
// Probe keys live far above both the workload record space and the txn
// driver's key space, so probes never conflict with either.
func (d *RebalanceDriver) nextProbeKey() uint64 {
	for {
		d.keySeq++
		k := 1<<44 + d.keySeq
		if d.cfg.Range.Contains(kvstore.KeyHash(k)) {
			return k
		}
	}
}

// submit routes one operation into group g's consensus through its client
// pool, as external client `numClients+4097+c` of that pool (the offset
// keeps probe ids clear of the txn driver's coordinator ids).
func (d *RebalanceDriver) submit(c, g int, op *kvstore.Op, cb func([]byte)) {
	pool := d.mc.groups[g].pool
	d.nextReq[c][g]++
	pool.submitExternal(types.ClientID(pool.numClients+4097+c), d.nextReq[c][g], op.Encode(), cb)
}

// probe issues one closed-loop write of a key in the migrating range,
// retrying refusals until the key lands; latency accumulates from the first
// attempt, so the migration window surfaces as a latency spike.
func (d *RebalanceDriver) probe(c int, key uint64, started time.Duration) {
	op := &kvstore.Op{Code: kvstore.OpInsert, Key: key, Value: []byte("probe")}
	d.submit(c, d.owner, op, func(val []byte) {
		switch string(val) {
		case kvstore.RangeMigrating, kvstore.WrongShard:
			d.retries++
			d.mc.schedule(&event{at: d.mc.now + d.cfg.RetryDelay, kind: evFunc,
				fn: func() { d.probe(c, key, started) }})
		default:
			d.recordProbe(started, d.mc.now)
			d.probe(c, d.nextProbeKey(), d.mc.now)
		}
	})
}

// recordProbe classifies a completion into the pre/dip/post windows.
func (d *RebalanceDriver) recordProbe(started, completed time.Duration) {
	if completed < d.winStart || completed >= d.winEnd {
		return
	}
	lat := completed - started
	switch {
	case d.freezeAt == 0 || completed < d.freezeAt:
		d.pre.add(lat)
	case d.flipAt != 0 && started >= d.flipAt:
		d.post.add(lat)
	default:
		d.dip.add(lat)
	}
}

// startHandoff runs the migration: freeze+export, staged install, one
// attested flip, drive.
func (d *RebalanceDriver) startHandoff() {
	d.freezeAt = d.mc.now
	d.submit(0, d.cfg.From, kvstore.EncodeRangeFreeze(d.hid, d.cfg.Range), func(val []byte) {
		recs, ok := kvstore.DecodeRangeExport(val)
		if !ok {
			panic("sim: range freeze refused: " + string(val))
		}
		d.movedRecords = len(recs)
		chunks := kvstore.ChunkRangeRecords(recs)
		d.installChunks = len(chunks)
		pending := len(chunks)
		for i, chunk := range chunks {
			op, err := kvstore.EncodeRangeInstall(d.hid, d.cfg.Range, uint32(i), chunk)
			if err != nil {
				panic("sim: range install encode failed: " + err.Error())
			}
			d.submit(0, d.cfg.To, op, func(val []byte) {
				if string(val) != kvstore.RangeStaged {
					panic("sim: range install refused: " + string(val))
				}
				pending--
				if pending == 0 {
					d.decide()
				}
			})
		}
	})
}

// decide is the commit point: one attested access on the orchestrator
// machine's component binding the successor placement, then the flip.
func (d *RebalanceDriver) decide() {
	mi := d.cfg.From % len(d.mc.machines)
	finish := d.mc.machines[mi].tcAccess(d.mc.now, d.tenant, d.cfg.HostSeqCommitPoint)
	att, err := d.arb[mi].AppendF(txn.DecisionCounter, txn.PlacementDecisionDigest(d.hid, d.epoch+1, d.placementDigest()))
	if err != nil {
		panic("sim: placement decision append failed: " + err.Error())
	}
	d.mc.obsv.Audit().Decision(obs.DecisionRecord{
		Kind: obs.DecisionPlacement, TxID: d.hid, Commit: true, Epoch: d.epoch + 1,
		Digest: att.Digest, Value: att.Value,
	})
	d.mc.obsv.Journal().Record(obs.EventEpochFlip, -1, "sim handoff %d flips to epoch %d", d.hid, d.epoch+1)
	d.tcAccesses++
	d.mc.schedule(&event{at: finish, kind: evFunc, fn: func() {
		// The placement is irrevocable once attested+published: probes
		// route to the destination from here on.
		d.flipAt = d.mc.now
		d.owner = d.cfg.To
		d.epoch++
		for _, g := range []int{d.cfg.From, d.cfg.To} {
			g := g
			d.submit(0, g, kvstore.EncodeTxnDecision(true, d.hid, 0), func([]byte) {
				d.driven++
			})
		}
	}})
}

// placementDigest stands in for the successor map's digest: the sim has no
// shard.PlacementMap (import cycle), but the attested statement binds the
// same shape — the migrated range and the two groups.
func (d *RebalanceDriver) placementDigest() types.Digest {
	var buf [32]byte
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (56 - 8*i))
		}
	}
	putU64(0, d.cfg.Range.Start)
	putU64(8, d.cfg.Range.End)
	putU64(16, uint64(d.cfg.From))
	putU64(24, uint64(d.cfg.To))
	return crypto.HashConcat([]byte("sim/rebalance-placement"), buf[:])
}

// RebalanceResults summarizes the driver's run.
type RebalanceResults struct {
	// FreezeAt/FlipAt are the virtual times the source froze and ownership
	// flipped; MigrationWindow is the distance between them — the interval
	// during which writes to the range were refused.
	FreezeAt, FlipAt time.Duration
	MigrationWindow  time.Duration
	// MovedRecords/InstallChunks describe the state actually transferred.
	MovedRecords, InstallChunks int
	// TCAccesses counts attested accesses the placement change cost (the
	// acceptance invariant: exactly one).
	TCAccesses uint64
	// ProbeRetries counts refused probe attempts (MIGRATING/WRONGSHARD).
	ProbeRetries uint64
	// DecisionsDriven counts groups the commit decision reached (2).
	DecisionsDriven int
	// Pre/Dip/Post summarize probe completions before the freeze, across
	// the migration, and after the flip. PreThroughput/PostThroughput are
	// completions per second over each side's window — their ratio is the
	// steady-state recovery.
	PreCompleted, DipCompleted, PostCompleted uint64
	PreMeanLat, DipMeanLat, PostMeanLat       time.Duration
	DipMaxLat                                 time.Duration
	PreThroughput, PostThroughput             float64
}

// Recovery returns post/pre probe throughput (1.0 = full recovery).
func (r RebalanceResults) Recovery() float64 {
	if r.PreThroughput <= 0 {
		return 0
	}
	return r.PostThroughput / r.PreThroughput
}

// Results summarizes the driver after a Run.
func (d *RebalanceDriver) Results() RebalanceResults {
	res := RebalanceResults{
		FreezeAt:        d.freezeAt,
		FlipAt:          d.flipAt,
		MovedRecords:    d.movedRecords,
		InstallChunks:   d.installChunks,
		TCAccesses:      d.tcAccesses,
		ProbeRetries:    d.retries,
		DecisionsDriven: d.driven,
		PreCompleted:    d.pre.n,
		DipCompleted:    d.dip.n,
		PostCompleted:   d.post.n,
		PreMeanLat:      d.pre.Mean(),
		DipMeanLat:      d.dip.Mean(),
		PostMeanLat:     d.post.Mean(),
		DipMaxLat:       d.dip.max,
	}
	if d.flipAt > d.freezeAt {
		res.MigrationWindow = d.flipAt - d.freezeAt
	}
	if pre := d.freezeAt - d.winStart; pre > 0 {
		res.PreThroughput = float64(d.pre.n) / pre.Seconds()
	}
	if post := d.winEnd - d.flipAt; d.flipAt > 0 && post > 0 {
		res.PostThroughput = float64(d.post.n) / post.Seconds()
	}
	return res
}
