package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexitrust"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/txn"
)

// shardDef describes one sharded workload: flexitrust.NewShardedCluster with
// S=2 Flexi-BFT groups, driven through ShardSession by closed-loop sessions
// that each own a disjoint key partition (sessionKeys).
type shardDef struct {
	sessions int
	lease    bool
	mix      sessMix
}

const shardGroups = 2

// sessRoot is one session operation as the benchmark saw it: the root span
// of the traced run.
type sessRoot struct {
	start, end int64
	kind       uint8
	key        uint64
}

// shardSession is one load generator: a goroutine with its own session (and
// ClientID) and one operation outstanding.
type shardSession struct {
	idx   int
	s     *flexitrust.ShardSession
	keys  []uint64
	ops   []sessOp
	pos   int
	ver   uint64   // version counter: every write of this session carries the next one
	last  []uint64 // per slot: version of the last acknowledged write (0 = none)
	stale int      // Gets that returned a version older than the session's own last acknowledged write
	// failedTags are the versions of writes that were refused or errored:
	// none of them may be visible after the run.
	failedTags map[uint64]bool
	firstErr   error
	roots      []sessRoot // traced runs only
}

// shardBed is a booted sharded deployment with its sessions.
type shardBed struct {
	def   shardDef
	c     *flexitrust.ShardedCluster
	sess  []*shardSession
	tr    *tracer
	audit *auditTally

	agreed *agreement // set by settle
}

// settle waits, once, for the replicas to come to rest after the load stops.
func (b *shardBed) settle() *agreement {
	if b.agreed == nil {
		b.agreed = b.replicasAgree()
	}
	return b.agreed
}

func (d shardDef) setup(p params, tr *tracer) (bed, error) {
	ids := make([]flexitrust.ClientID, d.sessions)
	for i := range ids {
		ids[i] = flexitrust.ClientID(i + 1)
	}
	opts := flexitrust.ShardOptions{
		Shards:    shardGroups,
		Protocol:  flexitrust.FlexiBFT,
		F:         1,
		Clients:   ids,
		Records:   sessRecords,
		ReadLease: d.lease,
	}
	if tr != nil {
		opts.Observe = flexitrust.ObserveOptions{Enabled: true, SampleRate: 1.0, TraceBuffer: 8192}
	}
	c, err := flexitrust.NewShardedCluster(opts)
	if err != nil {
		return nil, err
	}
	b := &shardBed{def: d, c: c, tr: tr}
	if tr != nil {
		// One clock for the benchmark's spans and the cluster's own trace
		// records, so the latter can be re-parented under the former.
		c.Observe().SetClock(func() time.Duration { return time.Duration(now()) })
		b.audit = startAuditTally(c.Observe().Audit())
	}
	for i, id := range ids {
		keys := sessionKeys(i, d.sessions)
		var pairs [][2]int32
		if d.mix.multiPut > 0 {
			pairs = crossShardPairs(keys, c.ShardFor)
		}
		b.sess = append(b.sess, &shardSession{
			idx: i, s: c.Session(id), keys: keys,
			ops:        buildSessionStream(p.seed, i, keys, d.mix, pairs),
			last:       make([]uint64, len(keys)),
			failedTags: make(map[uint64]bool),
		})
	}
	// Set-up ends at the first acknowledged operation.
	s0 := b.sess[0]
	if err := s0.put(0); err != nil {
		c.Stop()
		return nil, fmt.Errorf("no acknowledgement during set-up: %w", err)
	}
	return b, nil
}

const verBits = 40

// value encodes a session's version as the 8 bytes it stores.
func (ss *shardSession) value(ver uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(ss.idx+1)<<verBits|ver)
}

// version decodes a stored value: ok is false when the value was not written
// by this session. A never-written record (the store's lazy default) decodes
// as version 0.
func (ss *shardSession) version(val []byte) (ver uint64, ok bool) {
	if len(val) != 8 {
		return 0, false
	}
	v := binary.BigEndian.Uint64(val)
	switch v >> verBits {
	case 0:
		return 0, true
	case uint64(ss.idx + 1):
		return v & (1<<verBits - 1), true
	}
	return 0, false
}

func (ss *shardSession) put(slot int32) error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	ss.ver++
	if err := ss.s.Put(ctx, ss.keys[slot], ss.value(ss.ver)); err != nil {
		ss.failedTags[ss.ver] = true
		return err
	}
	ss.last[slot] = ss.ver
	return nil
}

func (ss *shardSession) multiPut(a, b int32) error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	ss.ver++
	val := ss.value(ss.ver)
	if err := ss.s.MultiPut(ctx, map[uint64][]byte{ss.keys[a]: val, ss.keys[b]: val}); err != nil {
		ss.failedTags[ss.ver] = true
		return err
	}
	ss.last[a], ss.last[b] = ss.ver, ss.ver
	return nil
}

// get reads slot and applies the session's own fence: the version returned
// may not be older than the last write this session saw acknowledged.
func (ss *shardSession) get(slot int32) error {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	val, err := ss.s.Get(ctx, ss.keys[slot])
	if err != nil {
		return err
	}
	if ver, ok := ss.version(val); !ok || ver < ss.last[slot] {
		ss.stale++
		return fmt.Errorf("session %d key %d read %x, older than its acknowledged version %d",
			ss.idx, ss.keys[slot], val, ss.last[slot])
	}
	return nil
}

// issue runs the session's next operation.
func (ss *shardSession) issue(log *opLog, traced bool) {
	op := ss.ops[ss.pos%len(ss.ops)]
	ss.pos++
	start := now()
	var err error
	switch op.kind {
	case sessGet:
		err = ss.get(op.slot)
	case sessPut:
		err = ss.put(op.slot)
	default:
		err = ss.multiPut(op.slot, op.slot2)
	}
	end := now()
	if traced {
		ss.roots = append(ss.roots, sessRoot{start: start, end: end, kind: op.kind, key: ss.keys[op.slot]})
	}
	if err != nil {
		if ss.firstErr == nil {
			ss.firstErr = err
		}
		log.fails = append(log.fails, end)
		return
	}
	log.acks = append(log.acks, ack{end: end, lat: end - start})
}

func (b *shardBed) measure(warmup, window time.Duration) *measurement {
	var stop atomic.Bool
	var wg sync.WaitGroup
	m := &measurement{logs: newOpLogs(len(b.sess), warmup+window)}
	for i, ss := range b.sess {
		log := m.logs[i]
		wg.Add(1)
		go func(ss *shardSession) {
			defer wg.Done()
			for !stop.Load() {
				ss.issue(log, b.tr != nil)
			}
		}(ss)
	}
	time.Sleep(warmup)
	m.start = readProc()
	time.Sleep(window)
	m.end = readProc()
	stop.Store(true)
	wg.Wait()
	return m
}

func (b *shardBed) check() []check {
	out := []check{b.settle().check()}

	stale := 0
	var firstErr error
	for _, ss := range b.sess {
		stale += ss.stale
		if firstErr == nil {
			firstErr = ss.firstErr
		}
	}
	fence := passed("read_fence")
	if stale > 0 {
		fence = failedf("read_fence", "%d Gets returned a version older than the session's own last acknowledged write", stale)
	}
	out = append(out, fence)
	if firstErr != nil {
		out = append(out, failedf("no_failed_ops", "first failure: %v", firstErr))
	} else {
		out = append(out, passed("no_failed_ops"))
	}
	return append(out, b.readBack())
}

// replicasAgree waits for a quorum (2f+1) of each group's replicas to report
// one state digest and returns how many replicas are outside their group's
// quorum. The public API exposes digests only, so a replica left behind (see
// cluster.quiesce) cannot be told from one that diverged; both count as
// lagging here, and a group without a quorum fails the check.
func (b *shardBed) replicasAgree() *agreement {
	n := flexitrust.FlexiBFT.N(1)
	for start := time.Now(); ; time.Sleep(25 * time.Millisecond) {
		lagging, err := 0, error(nil)
		for g := 0; g < shardGroups; g++ {
			count := make(map[flexitrust.Digest]int)
			best := 0
			for r := 0; r < n; r++ {
				d := b.c.ShardStateDigest(g, flexitrust.ReplicaID(r))
				if count[d]++; count[d] > best {
					best = count[d]
				}
			}
			if best < n-1 {
				err = fmt.Errorf("group %d: only %d of %d replicas share a state digest", g, best, n)
			}
			lagging += n - best
		}
		if err == nil || time.Since(start) > 5*time.Second {
			return &agreement{lagging: lagging, err: err}
		}
	}
}

// readBack reads every written key of a bounded sample back and checks that
// it holds the session's last acknowledged version — which, since both keys
// of a MultiPut are stamped with one version, also checks that an
// acknowledged MultiPut is visible on both of its keys — and that no value
// written by a failed operation is visible.
func (b *shardBed) readBack() check {
	const name = "acked_writes_read_back"
	perSession := readBackSample / len(b.sess)
	errs := make(chan error, len(b.sess))
	for _, ss := range b.sess {
		go func(ss *shardSession) {
			checked := 0
			for slot, want := range ss.last {
				if want == 0 {
					continue
				}
				if checked++; checked > perSession {
					break
				}
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				val, err := ss.s.Get(ctx, ss.keys[slot])
				cancel()
				if err != nil {
					errs <- fmt.Errorf("reading key %d back: %w", ss.keys[slot], err)
					return
				}
				got, ok := ss.version(val)
				switch {
				case !ok || got < want:
					errs <- fmt.Errorf("key %d reads %x, not its last acknowledged version %d", ss.keys[slot], val, want)
					return
				case ss.failedTags[got]:
					errs <- fmt.Errorf("key %d carries version %d of a write that failed", ss.keys[slot], got)
					return
				}
			}
			errs <- nil
		}(ss)
	}
	var first error
	for range b.sess {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return check{name: name, err: first}
}

func (b *shardBed) layers(s summary, v map[string]float64) {
	o := b.c.Observe()
	reg := o.Metrics()
	b.audit.stop()
	v["engine.lagging_replicas"] = float64(b.settle().lagging)

	verifies := float64(reg.Counter(obs.MSigVerifies).Value())
	hits := float64(reg.Counter(obs.MSigVerifyCacheHits).Value())
	v["crypto.sig_verifies_per_op"] = ratio(verifies, s.ops)
	v["crypto.verify_memo_hit_ratio"] = ratio(hits, hits+verifies)

	var batches float64
	for _, w := range b.c.Watermarks() {
		batches += float64(w)
	}
	v["trusted.accesses_per_batch"] = ratio(float64(b.audit.consensus), batches)
	v["engine.batch_fill"] = float64(reg.Histogram(obs.MExecBatch).Mean())
	v["engine.view_changes"] = float64(b.c.Stats().ViewChanges)
	v["shard.route_retries_per_op"] = ratio(float64(reg.Counter(obs.MRouteRetries).Value()), s.ops)

	if b.def.lease {
		served := float64(reg.Counter(obs.MLeaseReads).Value())
		fell := float64(reg.Counter(obs.MLeaseFallbacks).Value())
		v["shard.lease_hit_ratio"] = ratio(served, served+fell)
		v["shard.lease_read_us_p50"] = usOf(reg.Histogram(obs.MLeaseReadLatency).Quantile(50))
		v["shard.lease_grants_per_s"] = ratio(float64(b.audit.lease), float64(now()-b.audit.since)/1e9)
	}
	if b.def.mix.multiPut > 0 {
		v["txn.prepare_ms_p50"] = msOf(reg.Histogram(obs.MTxnPhasePrepare).Quantile(50))
		v["txn.decide_us_p50"] = usOf(reg.Histogram(obs.MTxnPhaseDecide).Quantile(50))
		v["txn.drive_ms_p50"] = msOf(reg.Histogram(obs.MTxnPhaseDrive).Quantile(50))
		v["txn.accesses_per_decision"] = ratio(float64(b.audit.coordinator), float64(len(o.Audit().Decisions())))
	}
	v["shard.session_overhead_us_p50"] = usOf(b.reparent())
}

// reparent turns the sessions' operations into root spans and hangs the
// cluster's own retained trace records (session/do → consensus/submit,
// txn/2pc → prepare/decide/drive) under the root that caused them. It
// returns the median Session.Put overhead: the Put's latency as the
// benchmark saw it minus the consensus/submit span inside it.
func (b *shardBed) reparent() int64 {
	var batch []spanRec
	var parents []int
	rootAt := make(map[*sessRoot]int)
	addRoot := func(ss *shardSession, i int) int {
		r := &ss.roots[i]
		if at, ok := rootAt[r]; ok {
			return at
		}
		batch = append(batch, spanRec{Name: spanSubmit, Start: r.start, End: r.end,
			Note: fmt.Sprintf("session %d op %d %s key %d", ss.idx, i, kindName(r.kind), r.key)})
		parents = append(parents, -1)
		rootAt[r] = len(batch) - 1
		return len(batch) - 1
	}
	var overheads []int64
	for _, tr := range b.c.Observe().Tracer().Snapshot() {
		if !tr.Complete() {
			continue
		}
		ss, i := b.rootOf(tr)
		if ss == nil {
			continue
		}
		root := addRoot(ss, i)
		base := len(batch)
		var submit int64
		for _, s := range tr.Spans {
			parent := root
			if s.Parent != 0 {
				parent = base + int(s.Parent) - 1
			}
			batch = append(batch, spanRec{Name: s.Layer + "." + s.Name, Start: s.StartNs, End: s.EndNs,
				Note: strings.Join(s.Notes, "; ")})
			parents = append(parents, parent)
			if s.Layer == "consensus" && s.Name == "submit" {
				submit += s.EndNs - s.StartNs
			}
		}
		if r := ss.roots[i]; r.kind == sessPut && submit > 0 {
			overheads = append(overheads, r.end-r.start-submit)
		}
	}
	// Operations the cluster opened no trace for (leased reads) are roots
	// without children; keep a sample so the file shows them too.
	for _, ss := range b.sess {
		for i := 0; i < len(ss.roots); i += traceEvery {
			addRoot(ss, i)
		}
	}
	b.tr.add(batch, parents)
	return medianInt64(overheads)
}

func kindName(kind uint8) string {
	return [...]string{"get", "put", "multiput"}[kind]
}

// rootOf finds the session operation that caused one of the cluster's trace
// records. A session/do record names its key, and a key belongs to exactly
// one session, which has one operation outstanding: the match is exact. A
// txn/2pc record names no key; it is matched to the MultiPut, among those in
// flight when it started, that began last — it opens within microseconds of
// its MultiPut.
func (b *shardBed) rootOf(tr obs.TraceRecord) (*shardSession, int) {
	head := tr.Spans[0]
	inFlight := func(ss *shardSession) int {
		i := sort.Search(len(ss.roots), func(i int) bool { return ss.roots[i].end >= head.EndNs })
		if i < len(ss.roots) && ss.roots[i].start <= head.StartNs {
			return i
		}
		return -1
	}
	switch head.Layer + "/" + head.Name {
	case "session/do":
		if len(head.Notes) == 0 {
			return nil, 0
		}
		key, err := strconv.ParseUint(strings.TrimPrefix(head.Notes[0], "key "), 10, 64)
		if err != nil {
			return nil, 0
		}
		ss := b.sess[int(key)%len(b.sess)]
		if i := inFlight(ss); i >= 0 && ss.roots[i].key == key {
			return ss, i
		}
	case "txn/2pc":
		var best *shardSession
		bestAt := -1
		for _, ss := range b.sess {
			i := inFlight(ss)
			if i < 0 || ss.roots[i].kind != sessMultiPut {
				continue
			}
			if best == nil || ss.roots[i].start > best.roots[bestAt].start {
				best, bestAt = ss, i
			}
		}
		if best != nil {
			return best, bestAt
		}
	}
	return nil, 0
}

func (b *shardBed) teardown() {
	b.audit.stop()
	b.c.Stop()
}

// auditTally counts the attested accesses of a sharded run by what they were
// for. The cluster's audit ring keeps only the most recent records, so the
// tally reads it often enough that none is evicted unseen.
type auditTally struct {
	a        *obs.Audit
	since    int64
	done     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	lastSeq  uint64

	lease       uint64 // grants bound to the lease counter
	coordinator uint64 // transaction decisions
	consensus   uint64 // everything else: one per proposed batch
}

func startAuditTally(a *obs.Audit) *auditTally {
	t := &auditTally{a: a, since: now(), done: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var absorbed uint64
		for {
			select {
			case <-t.done:
				t.absorb()
				return
			case <-tick.C:
				// Half the default ring (obs.DefaultAuditBuffer) of headroom.
				if total := a.TotalAccesses(); total-absorbed >= obs.DefaultAuditBuffer/2 {
					t.absorb()
					absorbed = total
				}
			}
		}
	}()
	return t
}

func (t *auditTally) absorb() {
	for _, r := range t.a.Records() {
		if r.Seq <= t.lastSeq {
			continue
		}
		t.lastSeq = r.Seq
		switch {
		case r.Namespace == txn.CoordinatorNamespace:
			t.coordinator++
		case r.Counter == engine.LeaseCounterID:
			t.lease++
		default:
			t.consensus++
		}
	}
}

// stop ends the tally after a final read of the ring. Nil-safe, idempotent.
func (t *auditTally) stop() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() {
		close(t.done)
		t.wg.Wait()
	})
}
