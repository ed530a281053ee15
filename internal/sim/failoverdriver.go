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

// FailoverDriver measures what a shard-primary failure costs the keys the
// shard owns, inside the shared discrete-event kernel, and drives the
// failover response the runtime orchestrator (internal/shard/failover.go)
// would take — an evacuation of the degraded group's range as an attested
// placement change:
//
//  1. at CrashAt the driver fail-stops the victim group's primary. Probe
//     writers targeting keys in the group's range stall; their client-pool
//     resends are what make the surviving backups suspect the primary and
//     run the view change.
//  2. after DetectAfter (the health monitor's stall threshold) the driver
//     starts evacuating: OpRangeFreeze rides the degraded group's own
//     consensus — committing only once the view change installs a working
//     primary — then the export stages into the destination group chunk by
//     chunk, and the flip is ONE attested counter access binding the
//     successor epoch (host-sequenced under the MinBFT discipline, paying
//     stream drains against the co-hosted groups).
//  3. the commit decision drives to both groups: the source releases the
//     range, the destination starts owning, and the stalled probes land.
//
// The probes surface the outage end to end: every probe's writes are
// refused or unanswered from the crash until the evacuation flips, so the
// windows below measure the full crash → re-point → serving-again path —
// the availability contrast the failover row of harness.Experiments()
// asserts between the FlexiTrust and host-sequenced commit disciplines.
type FailoverDriver struct {
	mc  *MultiCluster
	cfg FailoverDriverConfig
	rng *rand.Rand

	arb    []trusted.Component
	tenant int

	owner   int
	epoch   uint64
	hid     uint64
	nextReq [][]uint64
	keySeq  uint64

	winStart, winEnd time.Duration
	crashAt          time.Duration
	crashedReplica   types.ReplicaID
	viewsAtCrash     uint64
	evacStartAt      time.Duration // freeze submitted
	freezeDoneAt     time.Duration // export returned (view change complete)
	flipAt           time.Duration
	movedRecords     int
	installChunks    int
	tcAccesses       uint64
	retries          uint64
	driven           int

	// acked tracks every probe key the reply quorum acknowledged — the
	// census population.
	acked map[uint64]bool
	// recoveredAt is each probe lane's first completion after the crash.
	recoveredAt []time.Duration
	firstAfter  time.Duration

	pre, dip, post windowStats
}

// FailoverDriverConfig parameterizes the driver.
type FailoverDriverConfig struct {
	// Group is the victim group whose view-0 primary is killed; To is the
	// evacuation destination.
	Group, To int
	// Range is the victim's evacuated hash interval (probe keys hash into
	// it).
	Range kvstore.HashRange
	// CrashAt is the virtual time the primary fail-stops; 0 defaults to
	// warmup + measure/4.
	CrashAt time.Duration
	// DetectAfter is the stall wait before the evacuation starts — the
	// simulated health monitor's threshold (default 10ms).
	DetectAfter time.Duration
	// RecoverAt, when nonzero, un-crashes the primary at that time (it
	// rejoins as a backup of the new view).
	RecoverAt time.Duration
	// Probes is the number of closed-loop probe writers (default 8).
	Probes int
	// RetryDelay is the probe backoff after a refused write (default 200µs).
	RetryDelay time.Duration
	// HostSeqCommitPoint makes the flip's attested access host-sequenced
	// (the MinBFT/USIG discipline).
	HostSeqCommitPoint bool
	// Seed drives the driver's private randomness (derive with SubSeed).
	Seed int64
}

// AttachFailoverDriver installs a failover driver on the deployment; call
// before Run.
func (mc *MultiCluster) AttachFailoverDriver(cfg FailoverDriverConfig) *FailoverDriver {
	if mc.failDriver != nil {
		panic("sim: failover driver already attached")
	}
	if cfg.Group == cfg.To || cfg.Group < 0 || cfg.To < 0 ||
		cfg.Group >= len(mc.groups) || cfg.To >= len(mc.groups) {
		panic("sim: FailoverDriverConfig needs two distinct valid groups")
	}
	if cfg.Range.Start > cfg.Range.End {
		panic("sim: FailoverDriverConfig.Range is empty")
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 8
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 200 * time.Microsecond
	}
	if cfg.DetectAfter <= 0 {
		cfg.DetectAfter = 10 * time.Millisecond
	}
	d := &FailoverDriver{
		mc:     mc,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed + 13)),
		tenant: len(mc.groups) + 2, // distinct from groups and the other drivers
		owner:  cfg.Group,
		epoch:  1,
		// Handoff ids must not collide with the txn driver's sequential ids
		// or the rebalance driver's block when several drivers coexist.
		hid: 1 << 52,
		// Lane cfg.Probes is the orchestrator's own client identity: the
		// replicas' response caches are per-client high-watermark tables
		// (one outstanding request per client), so the evacuation must not
		// share a client id with a probe lane racing ahead of it — its
		// stalled freeze would be mistaken for an already-executed request
		// the moment a later probe commits.
		nextReq:     make([][]uint64, cfg.Probes+1),
		acked:       make(map[uint64]bool),
		recoveredAt: make([]time.Duration, cfg.Probes),
	}
	for c := range d.nextReq {
		d.nextReq[c] = make([]uint64, len(mc.groups))
	}
	for _, m := range mc.machines {
		d.arb = append(d.arb, trusted.Namespaced(m.tc, txn.CoordinatorNamespace))
	}
	mc.obsv.Audit().RegisterDecisionNamespace(txn.CoordinatorNamespace)
	mc.failDriver = d
	return d
}

// start launches the probes and schedules the crash, the evacuation and
// the optional recovery.
func (d *FailoverDriver) start(rampOver, warmup, measure time.Duration) {
	d.winStart, d.winEnd = warmup, warmup+measure
	crashAt := d.cfg.CrashAt
	if crashAt == 0 {
		crashAt = warmup + measure/4
	}
	d.crashAt = crashAt
	step := rampOver / time.Duration(d.cfg.Probes)
	for c := 0; c < d.cfg.Probes; c++ {
		c := c
		d.mc.schedule(&event{at: d.mc.now + time.Duration(c)*step, kind: evFunc,
			fn: func() { d.probe(c, d.nextProbeKey(), d.mc.now) }})
	}
	// Crash whoever leads the victim group AT crash time — an earlier
	// (spurious or injected) view change may have moved the primary off
	// replica 0, and killing a backup would measure nothing.
	d.mc.schedule(&event{at: crashAt, kind: evFunc, fn: func() {
		grp := d.mc.groups[d.cfg.Group]
		view, vcs := grp.viewStats()
		d.viewsAtCrash = vcs
		d.crashedReplica = types.Primary(view, grp.cfg.N)
		grp.replicas[d.crashedReplica].crashed = true
	}})
	d.mc.schedule(&event{at: crashAt + d.cfg.DetectAfter, kind: evFunc, fn: d.startEvacuation})
	if d.cfg.RecoverAt > 0 {
		d.mc.schedule(&event{at: d.cfg.RecoverAt, kind: evFunc, fn: func() {
			d.mc.groups[d.cfg.Group].replicas[d.crashedReplica].crashed = false
		}})
	}
}

// nextProbeKey returns a fresh key whose hash falls in the evacuated range
// (far above the workload and other drivers' key spaces).
func (d *FailoverDriver) nextProbeKey() uint64 {
	for {
		d.keySeq++
		k := 1<<45 + d.keySeq
		if d.cfg.Range.Contains(kvstore.KeyHash(k)) {
			return k
		}
	}
}

// submit routes one operation into group g's consensus through its client
// pool (external client ids offset past the pool's and the other drivers').
func (d *FailoverDriver) submit(c, g int, op *kvstore.Op, cb func([]byte)) {
	pool := d.mc.groups[g].pool
	d.nextReq[c][g]++
	pool.submitExternal(types.ClientID(pool.numClients+8193+c), d.nextReq[c][g], op.Encode(), cb)
}

// probe issues one closed-loop write of a key in the victim's range,
// retrying refusals until the key lands; latency accumulates from the
// first attempt, so the whole crash→evacuation window surfaces as blocked
// probes.
func (d *FailoverDriver) probe(c int, key uint64, started time.Duration) {
	op := &kvstore.Op{Code: kvstore.OpInsert, Key: key, Value: []byte("probe")}
	d.submit(c, d.owner, op, func(val []byte) {
		switch string(val) {
		case kvstore.RangeMigrating, kvstore.WrongShard:
			d.retries++
			d.mc.schedule(&event{at: d.mc.now + d.cfg.RetryDelay, kind: evFunc,
				fn: func() { d.probe(c, key, started) }})
		default:
			d.acked[key] = true
			d.recordProbe(c, started, d.mc.now)
			d.probe(c, d.nextProbeKey(), d.mc.now)
		}
	})
}

// recordProbe classifies a completion into the pre/dip/post windows and
// maintains the recovery bookkeeping. Recovery counts only probes
// SUBMITTED after the crash: responses already in flight when the primary
// died say nothing about the dead group serving again.
func (d *FailoverDriver) recordProbe(c int, started, completed time.Duration) {
	if started >= d.crashAt && completed > d.crashAt {
		if d.firstAfter == 0 {
			d.firstAfter = completed
		}
		if d.recoveredAt[c] == 0 {
			d.recoveredAt[c] = completed
		}
	}
	if completed < d.winStart || completed >= d.winEnd {
		return
	}
	lat := completed - started
	switch {
	case completed <= d.crashAt:
		d.pre.add(lat)
	case d.flipAt != 0 && started >= d.flipAt:
		d.post.add(lat)
	default:
		d.dip.add(lat)
	}
}

// startEvacuation begins the failover placement change: freeze+export on
// the (currently headless) victim, staged install on the destination, one
// attested flip, drive. The orchestrator lane submits strictly one
// operation at a time per group — its client identity's at-most-once
// watermark demands it.
func (d *FailoverDriver) startEvacuation() {
	orch := d.cfg.Probes
	d.evacStartAt = d.mc.now
	d.submit(orch, d.cfg.Group, kvstore.EncodeRangeFreeze(d.hid, d.cfg.Range), func(val []byte) {
		recs, ok := kvstore.DecodeRangeExport(val)
		if !ok {
			panic("sim: failover range freeze refused: " + string(val))
		}
		d.freezeDoneAt = d.mc.now
		d.movedRecords = len(recs)
		chunks := kvstore.ChunkRangeRecords(recs)
		d.installChunks = len(chunks)
		var installFrom func(i int)
		installFrom = func(i int) {
			if i == len(chunks) {
				d.decide()
				return
			}
			op, err := kvstore.EncodeRangeInstall(d.hid, d.cfg.Range, uint32(i), chunks[i])
			if err != nil {
				panic("sim: failover range install encode failed: " + err.Error())
			}
			d.submit(orch, d.cfg.To, op, func(val []byte) {
				if string(val) != kvstore.RangeStaged {
					panic("sim: failover range install refused: " + string(val))
				}
				installFrom(i + 1)
			})
		}
		installFrom(0)
	})
}

// decide is the commit point: one attested access on the orchestrator's
// machine (co-located with the destination — the healthy side) binding the
// successor placement, then the flip.
func (d *FailoverDriver) decide() {
	mi := d.cfg.To % len(d.mc.machines)
	finish := d.mc.machines[mi].tcAccess(d.mc.now, d.tenant, d.cfg.HostSeqCommitPoint)
	att, err := d.arb[mi].AppendF(txn.DecisionCounter, txn.PlacementDecisionDigest(d.hid, d.epoch+1, d.placementDigest()))
	if err != nil {
		panic("sim: failover placement decision append failed: " + err.Error())
	}
	d.mc.obsv.Audit().Decision(obs.DecisionRecord{
		Kind: obs.DecisionPlacement, TxID: d.hid, Commit: true, Epoch: d.epoch + 1,
		Digest: att.Digest, Value: att.Value,
	})
	d.mc.obsv.Journal().Record(obs.EventEvacuation, d.cfg.Group,
		"sim failover %d evacuates range to group %d at epoch %d", d.hid, d.cfg.To, d.epoch+1)
	d.tcAccesses++
	d.mc.schedule(&event{at: finish, kind: evFunc, fn: func() {
		d.flipAt = d.mc.now
		d.owner = d.cfg.To
		d.epoch++
		// The two decisions go to different pools, so the orchestrator lane
		// has one outstanding request per group — its watermark holds.
		for _, g := range []int{d.cfg.Group, d.cfg.To} {
			g := g
			d.submit(d.cfg.Probes, g, kvstore.EncodeTxnDecision(true, d.hid, 0), func([]byte) {
				d.driven++
			})
		}
	}})
}

// placementDigest stands in for the successor map's digest (the sim has no
// shard.PlacementMap — import cycle); the attested statement binds the
// evacuated range and both groups.
func (d *FailoverDriver) placementDigest() types.Digest {
	var buf [32]byte
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (56 - 8*i))
		}
	}
	putU64(0, d.cfg.Range.Start)
	putU64(8, d.cfg.Range.End)
	putU64(16, uint64(d.cfg.Group))
	putU64(24, uint64(d.cfg.To))
	return crypto.HashConcat([]byte("sim/failover-placement"), buf[:])
}

// FailoverCensus is the post-run key census: every probe key the reply
// quorum acknowledged must live in exactly one group's replicated store.
type FailoverCensus struct {
	Checked     int
	Lost        int // acked but on neither group
	DoublyOwned int // acked and on both groups
	// DriveIncomplete marks a census taken before the commit decision
	// reached both groups: until the source executes the release it still
	// serves the range, so store-level double ownership is the expected
	// transient (the published attested decision already governs routing).
	// Checked/Lost/DoublyOwned are not meaningful evidence in that state.
	DriveIncomplete bool
}

// Census audits the acked probe keys against both groups' stores. A group
// "has" a key when at least a write quorum (f+1) of its live replicas
// store it — single lagging replicas are not ownership.
func (d *FailoverDriver) Census() FailoverCensus {
	c := FailoverCensus{DriveIncomplete: d.driven < 2}
	for key := range d.acked {
		c.Checked++
		src := d.groupHasKey(d.cfg.Group, key)
		dst := d.groupHasKey(d.cfg.To, key)
		switch {
		case !src && !dst:
			c.Lost++
		case src && dst:
			c.DoublyOwned++
		}
	}
	return c
}

// groupHasKey reports whether ≥ f+1 live replicas of group g store key.
func (d *FailoverDriver) groupHasKey(g int, key uint64) bool {
	grp := d.mc.groups[g]
	have := 0
	for _, rn := range grp.replicas {
		if rn.crashed {
			continue
		}
		res := rn.Store().Apply((&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
		if s := string(res); s != kvstore.WrongShard && s != "NOTFOUND" {
			have++
		}
	}
	return have >= grp.cfg.F+1
}

// FailoverResults summarizes the driver's run.
type FailoverResults struct {
	// CrashAt is when the victim's primary fail-stopped; EvacStartAt when
	// the evacuation's freeze was submitted; FreezeDoneAt when the (post
	// view-change) export committed; FlipAt when the attested placement
	// change activated.
	CrashAt, EvacStartAt, FreezeDoneAt, FlipAt time.Duration
	// UnavailableFor is crash → first probe completion afterwards: how long
	// the shard's keys answered nobody. RecoveredAllAt is crash → every
	// probe lane completing again — the full-population recovery the
	// protocols contrast on (sequential post-election backlog drains show
	// up here).
	UnavailableFor, RecoveredAllAt time.Duration
	// MovedRecords/InstallChunks describe the evacuated state; TCAccesses
	// the attested cost of the placement change (must be 1);
	// DecisionsDriven the groups the commit reached (2).
	MovedRecords, InstallChunks int
	TCAccesses                  uint64
	ProbeRetries                uint64
	DecisionsDriven             int
	// Probe windows: pre-crash, crash→flip, post-flip.
	PreCompleted, DipCompleted, PostCompleted uint64
	PreMeanLat, DipMeanLat, PostMeanLat       time.Duration
	DipMaxLat                                 time.Duration
	PreThroughput, PostThroughput             float64
	// CrashedReplica is the replica the driver killed (the primary at
	// crash time). ViewChanges counts views the victim group installed
	// AFTER the crash: 1 is a clean election, more means escalation (the
	// first election missed its timeout).
	CrashedReplica types.ReplicaID
	ViewChanges    uint64
}

// Recovery returns post/pre probe throughput (1.0 = full recovery).
func (r FailoverResults) Recovery() float64 {
	if r.PreThroughput <= 0 {
		return 0
	}
	return r.PostThroughput / r.PreThroughput
}

// Results summarizes the driver after a Run.
func (d *FailoverDriver) Results() FailoverResults {
	_, vcs := d.mc.groups[d.cfg.Group].viewStats()
	if vcs >= d.viewsAtCrash {
		vcs -= d.viewsAtCrash
	}
	res := FailoverResults{
		CrashedReplica:  d.crashedReplica,
		CrashAt:         d.crashAt,
		EvacStartAt:     d.evacStartAt,
		FreezeDoneAt:    d.freezeDoneAt,
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
		ViewChanges:     vcs,
	}
	if d.firstAfter > 0 {
		res.UnavailableFor = d.firstAfter - d.crashAt
	}
	for _, at := range d.recoveredAt {
		if at == 0 {
			// A lane that never recovered: charge the full remaining window.
			res.RecoveredAllAt = d.winEnd - d.crashAt
			break
		}
		if w := at - d.crashAt; w > res.RecoveredAllAt {
			res.RecoveredAllAt = w
		}
	}
	if pre := d.crashAt - d.winStart; pre > 0 {
		res.PreThroughput = float64(d.pre.n) / pre.Seconds()
	}
	if post := d.winEnd - d.flipAt; d.flipAt > 0 && post > 0 {
		res.PostThroughput = float64(d.post.n) / post.Seconds()
	}
	return res
}
