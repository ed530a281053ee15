package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/runtime"
	"flexitrust/internal/types"
)

// kvDef describes one replicated-store workload: a single Flexi-BFT f=1
// group driven through runtime.Client with workload.DefaultConfig's op
// stream (YCSB-A 50/50, Zipf 0.99, 600k records), engine defaults.
type kvDef struct {
	tcp     bool
	clients int
	// rate, when nonzero, makes the load open-loop: rate ops/s in total,
	// each client's next request due every clients/rate seconds whether or
	// not its last one returned. Zero is a closed loop: one request
	// outstanding per client, the next sent when the reply quorum arrives.
	rate float64
	// killShare, when nonzero, fail-stops replica 0 (the view-0 primary)
	// this share of the way into the measured window.
	killShare float64
}

// opDeadline fails an operation that got no reply quorum: well above the
// 2 s a primary crash costs with shipped timeouts, well below a hang.
const opDeadline = 8 * time.Second

// writeRec is one acknowledged update: the key, the consensus sequence number
// its reply quorum committed it at, and the unique value it wrote.
type writeRec struct {
	key uint64
	seq types.SeqNum
	tag uint64
}

// kvClient is one load generator: a goroutine with its own ClientID and one
// request outstanding (runtime.Client cannot pipeline — the replicas'
// response cache keeps only the last ReqNo per client).
type kvClient struct {
	id     types.ClientID
	cl     *runtime.Client
	stream []kvOp
	pos    int
	reqNo  uint64 // mirrors the ReqNo runtime.Client assigns: one per Submit
	writes []writeRec
	// unacked are updates whose outcome is unknown (deadline): they may or
	// may not have committed, so the read-back check accepts either.
	unacked []writeRec
}

// kvBed is a booted replicated-store deployment with its load generators.
type kvBed struct {
	def     kvDef
	c       *cluster
	clients []*kvClient
	tr      *tracer
	rtt     *statusSampler // traced runs: event-queue wait under load

	agreed *agreement // set by settle
}

// settle waits, once, for the replicas to come to rest after the load stops.
func (b *kvBed) settle() *agreement {
	if b.agreed == nil {
		b.agreed = b.c.quiesce(5 * time.Second)
	}
	return b.agreed
}

func (d kvDef) setup(p params, tr *tracer) (bed, error) {
	ids := make([]types.ClientID, d.clients)
	for i := range ids {
		ids[i] = types.ClientID(i + 1)
	}
	streams := buildKVStreams(p.seed, d.clients)
	c, err := newCluster(clusterConfig{protocol: p.protocol, tcp: d.tcp, seed: p.seed, clients: ids, tr: tr})
	if err != nil {
		return nil, err
	}
	b := &kvBed{def: d, c: c, tr: tr}
	for i, id := range ids {
		cl, err := c.newClient(id)
		if err != nil {
			c.stop()
			return nil, err
		}
		b.clients = append(b.clients, &kvClient{id: id, cl: cl, stream: streams[i]})
	}
	// Set-up ends at the first acknowledged operation.
	if err := b.clients[0].issue(b.tr, nil, 0); err != nil {
		c.stop()
		return nil, err
	}
	return b, nil
}

// issue submits the client's next operation and records its outcome in log
// (nil during set-up). due, when nonzero, is the open-loop instant latency is
// counted from.
func (k *kvClient) issue(tr *tracer, log *opLog, due int64) error {
	op := &k.stream[k.pos%len(k.stream)]
	k.pos++
	k.reqNo++
	traced := tr.sampled(k.reqNo)
	if traced {
		tr.arm(k.id, k.reqNo)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	start := now()
	_, seq, err := k.cl.SubmitSeq(ctx, op.enc)
	end := now()
	cancel()
	if traced {
		tr.finish(k.id, k.reqNo, start, end)
	}
	if err != nil {
		if op.write {
			k.unacked = append(k.unacked, writeRec{key: op.key, tag: op.tag})
		}
		if log != nil {
			log.fails = append(log.fails, end)
		}
		return fmt.Errorf("client %d request %d: %w", k.id, k.reqNo, err)
	}
	if op.write {
		k.writes = append(k.writes, writeRec{key: op.key, seq: seq, tag: op.tag})
	}
	if log != nil {
		if due == 0 {
			due = start
		}
		log.acks = append(log.acks, ack{end: end, lat: end - due})
	}
	return nil
}

func (b *kvBed) measure(warmup, window time.Duration) *measurement {
	var stop atomic.Bool
	var wg sync.WaitGroup
	m := &measurement{logs: newOpLogs(len(b.clients), warmup+window)}
	t0 := now()
	interval := int64(0)
	if b.def.rate > 0 {
		interval = int64(float64(len(b.clients)) / b.def.rate * 1e9)
	}
	for i, k := range b.clients {
		log := m.logs[i]
		wg.Add(1)
		go func(i int, k *kvClient) {
			defer wg.Done()
			if interval == 0 {
				for !stop.Load() {
					k.issue(b.tr, log, 0)
				}
				return
			}
			// Open loop: client i's k-th request is due at a fixed instant,
			// staggered so the offered load is even. A request still
			// outstanding delays the next one's send but not its due time,
			// so the wait a stall imposes on later requests is counted.
			due := t0 + int64(i)*interval/int64(len(b.clients))
			free := true
			for !stop.Load() {
				if wait := due - now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				if free {
					log.lags = append(log.lags, now()-due)
				}
				k.issue(b.tr, log, due)
				due += interval
				free = now() <= due
			}
		}(i, k)
	}
	if b.tr != nil {
		b.rtt = startStatusSampler(b.c)
	}
	time.Sleep(warmup)
	m.start = readProc()
	if b.def.killShare > 0 {
		time.Sleep(time.Duration(b.def.killShare * float64(window)))
		b.c.nodes[0].Stop()
	}
	time.Sleep(window - time.Duration(now()-m.start.at))
	m.end = readProc()
	b.rtt.stop()
	stop.Store(true)
	wg.Wait()
	return m
}

// readBackSample bounds how many written keys the read-back check reads
// through consensus after the run (spread evenly over the sorted key set).
const readBackSample = 2048

func (b *kvBed) check() []check {
	// A quorum of live replicas agrees after quiescence; on the failover
	// workload the three survivors are that quorum, so this is "survivors
	// converge".
	return []check{b.settle().check(), b.readBack()}
}

// readBack checks that no acknowledged write was lost: for every sampled
// written key, a consensus read returns the value of the acknowledged update
// with the highest commit sequence number (several candidates when updates
// shared a batch) or of an update whose outcome was never learned.
func (b *kvBed) readBack() check {
	const name = "acked_writes_read_back"
	type latest struct {
		seq  types.SeqNum
		tags map[uint64]bool
	}
	want := make(map[uint64]*latest)
	for _, k := range b.clients {
		for _, w := range k.writes {
			l := want[w.key]
			if l == nil {
				l = &latest{tags: make(map[uint64]bool)}
				want[w.key] = l
			}
			if w.seq > l.seq {
				l.seq, l.tags = w.seq, map[uint64]bool{}
			}
			if w.seq == l.seq {
				l.tags[w.tag] = true
			}
		}
	}
	for _, k := range b.clients {
		for _, w := range k.unacked {
			if l := want[w.key]; l != nil {
				l.tags[w.tag] = true
			}
		}
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if stride := len(keys)/readBackSample + 1; stride > 1 {
		sampled := keys[:0]
		for i := 0; i < len(keys); i += stride {
			sampled = append(sampled, keys[i])
		}
		keys = sampled
	}
	readers := b.clients
	if len(readers) > 64 {
		readers = readers[:64]
	}
	errs := make(chan error, len(readers))
	for r, k := range readers {
		go func(r int, k *kvClient) {
			for i := r; i < len(keys); i += len(readers) {
				key := keys[i]
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				val, err := k.cl.Submit(ctx, (&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
				cancel()
				if err != nil {
					errs <- fmt.Errorf("reading key %d back: %w", key, err)
					return
				}
				if len(val) != 8 || !want[key].tags[binary.BigEndian.Uint64(val)] {
					errs <- fmt.Errorf("key %d reads %x, not the value of its last acknowledged update (seq %d)",
						key, val, want[key].seq)
					return
				}
			}
			errs <- nil
		}(r, k)
	}
	var first error
	for range readers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return check{name: name, err: first}
}

// layers fills the per-layer metrics this deployment can see from outside.
func (b *kvBed) layers(s summary, v map[string]float64) {
	tr := b.tr
	v["engine.lagging_replicas"] = float64(b.settle().lagging) // and drop_share is defined at quiescence
	sends := float64(tr.sends.Load())
	v["transport.msgs_per_op"] = ratio(sends, s.ops)
	v["transport.send_ns_per_msg"] = ratio(float64(tr.sendNs.Load()), sends)
	v["transport.drop_share"] = ratio(sends-float64(tr.delivered.Load()), sends)

	v["runtime.queue_wait_us_p50"] = usOf(percentile(b.rtt.waits, 50))
	v["runtime.queue_wait_us_p99"] = usOf(percentile(b.rtt.waits, 99))
	v["runtime.client_quorum_us_p50"] = usOf(percentile(tr.durations(spanQuorum), 50))

	reg := b.c.observer.Metrics()
	verifies := float64(reg.Counter(obs.MSigVerifies).Value())
	hits := float64(reg.Counter(obs.MSigVerifyCacheHits).Value())
	v["crypto.sig_verifies_per_op"] = ratio(verifies, s.ops)
	v["crypto.verify_memo_hit_ratio"] = ratio(hits, hits+verifies)

	st := b.c.status()
	v["trusted.accesses_per_batch"] = ratio(float64(b.c.trustedAccesses()), float64(st.LastExecuted))
	v["engine.batch_fill"] = float64(reg.Histogram(obs.MExecBatch).Mean())
	v["engine.view_changes"] = float64(st.ViewChanges)

	wireLayer(tr, b.def.tcp, s.ops, v)
}

func (b *kvBed) teardown() { b.c.stop() }

// writtenKeys is the distinct-key count of the run's acknowledged updates —
// the size the kvstore snapshot probe checkpoints at.
func (b *kvBed) writtenKeys() int {
	seen := make(map[uint64]struct{})
	for _, k := range b.clients {
		for _, w := range k.writes {
			seen[w.key] = struct{}{}
		}
	}
	return len(seen)
}

// opMix returns a sample of the run's encoded operations for the kvstore
// apply probe.
func (b *kvBed) opMix() [][]byte {
	stream := b.clients[0].stream
	n := len(stream)
	if n > 4096 {
		n = 4096
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = stream[i].enc
	}
	return out
}

// statusSampler measures event-queue wait from outside: a Node.Status() round
// trip is one no-op event through a node's queue, so under load its latency
// is how long an event waits its turn. Sampled every 10 ms on the current
// primary.
type statusSampler struct {
	done  chan struct{}
	wg    sync.WaitGroup
	waits []int64 // sorted once stopped
}

func startStatusSampler(c *cluster) *statusSampler {
	s := &statusSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		primary := 0
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
			node := c.nodes[primary%len(c.nodes)]
			t0 := now()
			st, ok := node.Status()
			if !ok {
				primary++ // stopped: probe the next replica
				continue
			}
			s.waits = append(s.waits, now()-t0)
			primary = int(st.Primary)
		}
	}()
	return s
}

func (s *statusSampler) stop() {
	if s == nil {
		return
	}
	close(s.done)
	s.wg.Wait()
	sortInt64(s.waits)
}
