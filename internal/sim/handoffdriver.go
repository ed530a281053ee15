package sim

import (
	"fmt"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/txn"
	"flexitrust/internal/types"
)

// HandoffDriver runs one live range handoff between two of a MultiCluster's
// co-hosted consensus groups inside the shared kernel, and measures what it
// costs the keys being moved. It runs the step machine the runtime's
// Session.Rebalance runs (txn.Handoff), submitting each step through the
// groups' client pools so it rides the same batching, reply quorums and
// resends as every other request:
//
//  1. the freeze+export on the source, then each install chunk on the
//     destination, one at a time, under the orchestrator's own client
//     identity — the replicas' at-most-once high-water mark is per client,
//     so the orchestrator never has two requests in flight to one group and
//     never shares an identity with a probe racing ahead of it;
//  2. the commit point: ONE attested access through
//     txn.Arbiter.DecidePlacement on the destination's machine, serialized
//     on that machine's trusted-component timeline (host-sequenced under
//     the MinBFT discipline, paying stream drains against co-hosted
//     groups);
//  3. the flip, then the decision driven to both groups: the source
//     releases the range and the destination starts owning it.
//
// Two scenarios share it. Without DetectAfter the handoff is a rebalance,
// started a third into the measurement window. With DetectAfter it is a
// failover: a quarter into the window the source's primary fail-stops and,
// after the health monitor's stall threshold, the handoff evacuates the
// range — its freeze commits only once the client resends have driven the
// survivors through a view change.
//
// Closed-loop probe writers whose keys hash into the range route by the
// driver's placement — the source until the flip, the destination after —
// and retry refused writes (RangeMigrating, WrongShard) after a short
// backoff, accumulating latency from their first attempt. Their pre/dip/post
// windows are the availability dip and recovery the rebalance and failover
// rows of harness.Experiments() report; every key they get acknowledged
// joins the census.
type HandoffDriver struct {
	mc  *MultiCluster
	cfg HandoffConfig
	h   *txn.Handoff
	err error

	owner   int // group probes route to (From until the flip lands)
	nextReq [][]uint64
	keySeq  uint64

	winStart, winEnd time.Duration
	// cut splits the pre window from the dip: the crash, or the freeze
	// when nothing crashes.
	cut            time.Duration
	crashAt        time.Duration
	crashedReplica types.ReplicaID
	viewsAtCrash   uint64
	freezeAt       time.Duration
	freezeDoneAt   time.Duration
	flipAt         time.Duration
	tcAccesses     uint64
	retries        uint64
	driven         int

	// acked holds every probe key a reply quorum acknowledged — the census
	// population.
	acked map[uint64]bool
	// recoveredAt is each probe lane's first completion of a probe started
	// after the cut.
	recoveredAt []time.Duration
	firstAfter  time.Duration

	pre, dip, post windowStats
}

// HandoffConfig parameterizes the driver.
type HandoffConfig struct {
	// From and To are the source and destination group indices.
	From, To int
	// Range is the hash interval handed off (probe keys hash into it).
	Range kvstore.HashRange
	// HostSeqCommitPoint makes the decision access host-sequenced (the
	// MinBFT/USIG discipline); false is the FlexiTrust AppendF discipline.
	HostSeqCommitPoint bool
	// DetectAfter, when nonzero, makes the run a failover: the source's
	// primary fail-stops a quarter into the measurement window and the
	// handoff starts this long after (the health monitor's stall
	// threshold).
	DetectAfter time.Duration
}

// The driver's fixed shape. Ids, keys and client ids sit clear of the
// workload, the pools' closed-loop clients and the transaction driver.
const (
	// HandoffProbes is the number of closed-loop probe writers.
	HandoffProbes     = 8
	handoffRetryDelay = 200 * time.Microsecond
	handoffID         = 1 << 52
	handoffKeyBase    = 1 << 45
	handoffClientBase = 8193
	// handoffEpoch is the placement epoch the decision activates: the
	// successor of the deployment's initial epoch 1.
	handoffEpoch = 2
)

// AttachHandoffDriver installs a handoff driver on the deployment; call
// before Run.
func (mc *MultiCluster) AttachHandoffDriver(cfg HandoffConfig) *HandoffDriver {
	if mc.handoff != nil {
		panic("sim: handoff driver already attached")
	}
	if cfg.From == cfg.To || cfg.From < 0 || cfg.To < 0 ||
		cfg.From >= len(mc.groups) || cfg.To >= len(mc.groups) {
		panic("sim: HandoffConfig needs two distinct valid groups")
	}
	if cfg.Range.Start > cfg.Range.End {
		panic("sim: HandoffConfig.Range is empty")
	}
	d := &HandoffDriver{
		mc:    mc,
		cfg:   cfg,
		h:     txn.NewHandoff(handoffID, cfg.Range, cfg.From, cfg.To),
		owner: cfg.From,
		// Lane HandoffProbes is the orchestrator's.
		nextReq:     make([][]uint64, HandoffProbes+1),
		acked:       make(map[uint64]bool),
		recoveredAt: make([]time.Duration, HandoffProbes),
	}
	for c := range d.nextReq {
		d.nextReq[c] = make([]uint64, len(mc.groups))
	}
	mc.handoff = d
	return d
}

// Err reports why the handoff stopped short: a refused freeze or install,
// or a failed decision. Nil for a handoff that is done or still running.
func (d *HandoffDriver) Err() error { return d.err }

// start launches the probes (staggered over the ramp) and schedules the
// handoff, and for a failover the crash before it.
func (d *HandoffDriver) start(rampOver, warmup, measure time.Duration) {
	d.winStart, d.winEnd = warmup, warmup+measure
	step := rampOver / HandoffProbes
	for c := 0; c < HandoffProbes; c++ {
		d.mc.schedule(&event{at: d.mc.now + time.Duration(c)*step, kind: evFunc,
			fn: func() { d.probe(c, d.nextProbeKey(), d.mc.now) }})
	}
	if d.cfg.DetectAfter == 0 {
		d.cut = warmup + measure/3
		d.mc.schedule(&event{at: d.cut, kind: evFunc, fn: d.prepare})
		return
	}
	d.cut = warmup + measure/4
	d.crashAt = d.cut
	// Crash whoever leads the source AT crash time — an earlier view change
	// may have moved the primary off replica 0, and killing a backup would
	// measure nothing.
	d.mc.schedule(&event{at: d.crashAt, kind: evFunc, fn: func() {
		grp := d.mc.groups[d.cfg.From]
		view, vcs := grp.viewStats()
		d.viewsAtCrash = vcs
		d.crashedReplica = types.Primary(view, grp.cfg.N)
		grp.replicas[d.crashedReplica].crashed = true
	}})
	d.mc.schedule(&event{at: d.crashAt + d.cfg.DetectAfter, kind: evFunc, fn: func() {
		d.mc.obsv.Journal().Record(obs.EventEvacuation, d.cfg.From, "sim evacuation of group %d started", d.cfg.From)
		d.prepare()
	}})
}

// nextProbeKey returns a fresh key whose hash falls in the range, far above
// the workload's and the transaction driver's key spaces.
func (d *HandoffDriver) nextProbeKey() uint64 {
	for {
		d.keySeq++
		k := handoffKeyBase + d.keySeq
		if d.cfg.Range.Contains(kvstore.KeyHash(k)) {
			return k
		}
	}
}

// submit routes one operation from lane c into group g's consensus through
// its client pool.
func (d *HandoffDriver) submit(c, g int, op *kvstore.Op, cb func([]byte)) {
	pool := d.mc.groups[g].pool
	d.nextReq[c][g]++
	pool.submitExternal(types.ClientID(pool.numClients+handoffClientBase+c), d.nextReq[c][g], op.Encode(), cb)
}

// probe issues one closed-loop write of a key in the range, retrying
// refusals until the key lands.
func (d *HandoffDriver) probe(c int, key uint64, started time.Duration) {
	op := &kvstore.Op{Code: kvstore.OpInsert, Key: key, Value: []byte("probe")}
	d.submit(c, d.owner, op, func(val []byte) {
		switch string(val) {
		case kvstore.RangeMigrating, kvstore.WrongShard:
			d.retries++
			d.mc.schedule(&event{at: d.mc.now + handoffRetryDelay, kind: evFunc,
				fn: func() { d.probe(c, key, started) }})
		default:
			d.acked[key] = true
			d.recordProbe(c, started, d.mc.now)
			d.probe(c, d.nextProbeKey(), d.mc.now)
		}
	})
}

// recordProbe classifies a completion into the pre/dip/post windows and
// keeps the recovery bookkeeping. Recovery counts only probes STARTED after
// the cut: responses already in flight then say nothing about the range
// serving again.
func (d *HandoffDriver) recordProbe(c int, started, completed time.Duration) {
	if started >= d.cut && completed > d.cut {
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
	case completed <= d.cut:
		d.pre.add(lat)
	case d.flipAt != 0 && started >= d.flipAt:
		d.post.add(lat)
	default:
		d.dip.add(lat)
	}
}

// prepare submits the machine's next prepare step and, once every install
// chunk is staged, decides.
func (d *HandoffDriver) prepare() {
	g, op := d.h.Next()
	if op == nil {
		d.decide()
		return
	}
	if d.freezeAt == 0 {
		d.freezeAt = d.mc.now
	}
	d.submit(HandoffProbes, g, op, func(val []byte) {
		if d.freezeDoneAt == 0 {
			d.freezeDoneAt = d.mc.now
		}
		if err := d.h.Answer(val); err != nil {
			d.err = fmt.Errorf("sim: handoff %d: %w", d.h.ID, err)
			return
		}
		d.prepare()
	})
}

// decide is the commit point — one attested access on the destination's
// machine binding the successor placement — then the flip and the drive.
func (d *HandoffDriver) decide() {
	mi := d.cfg.To % len(d.mc.machines)
	// The driver's stream tenant is distinct from every group and the
	// transaction driver.
	finish := d.mc.machines[mi].tcAccess(d.mc.now, len(d.mc.groups)+2, d.cfg.HostSeqCommitPoint)
	if _, err := d.mc.arbiters()[mi].DecidePlacement(d.h.ID, handoffEpoch, d.placementDigest()); err != nil {
		d.err = fmt.Errorf("sim: handoff %d: arbiter: %w", d.h.ID, err)
		return
	}
	d.tcAccesses++
	d.mc.schedule(&event{at: finish, kind: evFunc, fn: func() {
		// The placement is irrevocable once attested: probes route to the
		// destination from here on.
		d.flipAt = d.mc.now
		d.owner = d.cfg.To
		d.mc.obsv.Journal().Record(obs.EventEpochFlip, -1, "sim handoff %d flips to epoch %d", d.h.ID, handoffEpoch)
		// The groups differ, so the orchestrator still has one request
		// outstanding per group.
		op, groups := d.h.Drive(true)
		for _, g := range groups {
			d.submit(HandoffProbes, g, op, func([]byte) { d.driven++ })
		}
	}})
}

// placementDigest stands in for the successor map's digest (the simulator
// has no shard.PlacementMap — import cycle): the attested statement binds
// the range and both groups.
func (d *HandoffDriver) placementDigest() types.Digest {
	var buf [32]byte
	for i, v := range []uint64{d.cfg.Range.Start, d.cfg.Range.End, uint64(d.cfg.From), uint64(d.cfg.To)} {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(v >> (56 - 8*b))
		}
	}
	return crypto.HashConcat([]byte("sim/handoff-placement"), buf[:])
}

// HandoffCensus is the post-run key census: every probe key a reply quorum
// acknowledged must live in exactly one group's replicated store.
type HandoffCensus struct {
	Checked     int
	Lost        int // acked but on neither group
	DoublyOwned int // acked and on both groups
	// DriveIncomplete marks a census taken before the decision reached both
	// groups: until the source executes the release it still serves the
	// range, so store-level double ownership is the expected transient.
	// Checked/Lost/DoublyOwned are not evidence in that state.
	DriveIncomplete bool
}

// Census audits the acked probe keys against both groups' stores. A group
// "has" a key when at least f+1 of its live replicas store it — a single
// lagging replica is not ownership.
func (d *HandoffDriver) Census() HandoffCensus {
	c := HandoffCensus{DriveIncomplete: d.driven < 2}
	for key := range d.acked {
		c.Checked++
		src := d.groupHasKey(d.cfg.From, key)
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

// Check returns an error when the census found a lost or doubly-owned key;
// a census taken before the drive completed proves nothing either way.
func (c HandoffCensus) Check() error {
	if c.DriveIncomplete || (c.Lost == 0 && c.DoublyOwned == 0) {
		return nil
	}
	return fmt.Errorf("sim: handoff census: %d lost and %d doubly-owned of %d acked keys", c.Lost, c.DoublyOwned, c.Checked)
}

// groupHasKey reports whether ≥ f+1 live replicas of group g store key.
func (d *HandoffDriver) groupHasKey(g int, key uint64) bool {
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

// windowStats accumulates probe completions for one phase of the run.
type windowStats struct {
	n   uint64
	sum time.Duration
	max time.Duration
}

func (w *windowStats) add(lat time.Duration) {
	w.n++
	w.sum += lat
	w.max = max(w.max, lat)
}

// Mean returns the window's mean latency.
func (w windowStats) Mean() time.Duration {
	if w.n == 0 {
		return 0
	}
	return w.sum / time.Duration(w.n)
}

// HandoffResults summarizes the driver's run.
type HandoffResults struct {
	// CrashAt is when the source's primary fail-stopped (zero without a
	// crash); FreezeAt when the freeze was submitted; FreezeDoneAt when the
	// export returned; FlipAt when the attested placement change activated.
	// MigrationWindow is FreezeAt → FlipAt, the interval writes to the
	// range were refused.
	CrashAt, FreezeAt, FreezeDoneAt, FlipAt, MigrationWindow time.Duration
	// UnavailableFor is the cut (crash, else freeze) → the first completion
	// of a probe started after it; RecoveredAllAt is the cut → every probe
	// lane completing again.
	UnavailableFor, RecoveredAllAt time.Duration
	// MovedRecords/InstallChunks describe the state transferred; TCAccesses
	// the attested cost of the placement change (must be 1);
	// DecisionsDriven the groups the decision reached (2).
	MovedRecords, InstallChunks int
	TCAccesses                  uint64
	ProbeRetries                uint64
	DecisionsDriven             int
	// Probe windows: before the cut, cut → flip, after the flip.
	PreCompleted, DipCompleted, PostCompleted uint64
	PreMeanLat, DipMeanLat, PostMeanLat       time.Duration
	DipMaxLat                                 time.Duration
	PreThroughput, PostThroughput             float64
	// CrashedReplica is the replica a failover killed (the source's primary
	// at crash time). ViewChanges counts views the source installed after
	// the crash: 1 is a clean election, more means escalation.
	CrashedReplica types.ReplicaID
	ViewChanges    uint64
}

// Recovery returns post/pre probe throughput (1.0 = full recovery).
func (r HandoffResults) Recovery() float64 {
	if r.PreThroughput <= 0 {
		return 0
	}
	return r.PostThroughput / r.PreThroughput
}

// Results summarizes the driver after a Run.
func (d *HandoffDriver) Results() HandoffResults {
	_, vcs := d.mc.groups[d.cfg.From].viewStats()
	res := HandoffResults{
		CrashAt:         d.crashAt,
		FreezeAt:        d.freezeAt,
		FreezeDoneAt:    d.freezeDoneAt,
		FlipAt:          d.flipAt,
		MovedRecords:    d.h.Moved,
		InstallChunks:   d.h.Chunks,
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
		CrashedReplica:  d.crashedReplica,
		ViewChanges:     vcs - min(vcs, d.viewsAtCrash),
	}
	if d.flipAt > d.freezeAt {
		res.MigrationWindow = d.flipAt - d.freezeAt
	}
	if d.firstAfter > 0 {
		res.UnavailableFor = d.firstAfter - d.cut
	}
	for _, at := range d.recoveredAt {
		if at == 0 {
			// A lane that never recovered: charge the full remaining window.
			res.RecoveredAllAt = d.winEnd - d.cut
			break
		}
		res.RecoveredAllAt = max(res.RecoveredAllAt, at-d.cut)
	}
	if pre := d.cut - d.winStart; pre > 0 {
		res.PreThroughput = float64(d.pre.n) / pre.Seconds()
	}
	if post := d.winEnd - d.flipAt; d.flipAt > 0 && post > 0 {
		res.PostThroughput = float64(d.post.n) / post.Seconds()
	}
	return res
}
