package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/harness"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/sim"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
	"flexitrust/internal/workload"
)

// Layer probes: each times one layer's public entry points in isolation, on
// inputs captured from the traced run where the layer's cost depends on
// them. They run after the measured window, single-threaded, and report the
// median of several rounds so one descheduling does not move them.

const probeRounds = 5

// timeRounds runs body probeRounds times and returns the median nanoseconds
// per item, body handling n items a round.
func timeRounds(n int, body func()) float64 {
	per := make([]int64, probeRounds)
	for r := range per {
		t0 := now()
		body()
		per[r] = now() - t0
	}
	return float64(medianInt64(per)) / float64(n)
}

// mallocs returns the process's cumulative heap-object count.
func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeInputs is what a deployment can hand the input-dependent probes.
type probeInputs interface {
	opMix() [][]byte
	writtenKeys() int
}

// runProbes fills the workload-independent per-layer metrics.
func runProbes(in probeInputs, seed int64, v map[string]float64) error {
	probeCrypto(v)
	probeTrusted(v)
	probeKVStore(in, v)
	probeWorkload(seed, v)
	if err := probeProtocols(v); err != nil {
		return err
	}
	if err := probeSim(seed, v); err != nil {
		return err
	}
	return probeTransport(v)
}

// onOneP runs fn with one P. Timing a single-goroutine, allocation-heavy
// phase with a second P awake measures this class of host, not the code: the
// garbage collector's hand-offs to the other vCPU made the same set-up or
// simulator point up to twice as slow in one process as in the next (±20 %
// between processes against ±3 % on one P).
func onOneP(fn func()) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	fn()
}

// wireLayer replays the envelopes the traced run captured through the codec,
// by message type, and weights the per-type means by the observed mix. On
// the hub no frame is ever built — it passes pointers — so bytes_per_op is 0
// there by construction.
func wireLayer(tr *tracer, tcp bool, ops float64, v map[string]float64) {
	var msgs, encNs, decNs, decAllocs, bytes float64
	for mt, envs := range tr.captured {
		count := float64(tr.byType[mt].Load())
		frames := make([][]byte, len(envs))
		var size float64
		for i, env := range envs {
			frame, err := wire.Encode(env)
			if err != nil {
				continue
			}
			frames[i] = frame
			size += float64(len(frame))
		}
		size /= float64(len(envs))
		enc := timeRounds(len(envs), func() {
			for _, env := range envs {
				wire.Encode(env)
			}
		})
		before := mallocs()
		dec := timeRounds(len(frames), func() {
			for _, f := range frames {
				wire.Decode(f)
			}
		})
		allocs := float64(mallocs()-before) / float64(probeRounds*len(frames))
		msgs += count
		encNs += count * enc
		decNs += count * dec
		decAllocs += count * allocs
		bytes += count * size
		if mt == types.MsgResponse {
			v["wire.response_frame_bytes"] = size
		}
	}
	v["wire.encode_ns_per_msg"] = ratio(encNs, msgs)
	v["wire.decode_ns_per_msg"] = ratio(decNs, msgs)
	v["wire.decode_allocs_per_msg"] = ratio(decAllocs, msgs)
	if tcp {
		v["wire.bytes_per_op"] = ratio(bytes, ops)
	}
}

func probeCrypto(v map[string]float64) {
	ring, err := crypto.NewKeyring(1, 4, nil)
	if err != nil {
		return
	}
	suite := crypto.NewSuite(ring, 0)
	payload := crypto.HashBytes([]byte("bench"))
	const n = 100
	var sig []byte
	v["crypto.sign_ns"] = timeRounds(n, func() {
		for i := 0; i < n; i++ {
			sig = suite.Sign(payload[:])
		}
	})
	v["crypto.verify_ns"] = timeRounds(n, func() {
		for i := 0; i < n; i++ {
			suite.Verify(0, payload[:], sig)
		}
	})
	// A 2f+1 certificate at n=4 carrying one signature per signer.
	voters := []types.ReplicaID{0, 1, 2}
	qc := crypto.AssembleQC(1, 7, payload, types.Digest{}, 4, voters)
	for _, r := range voters {
		qc.Sigs = append(qc.Sigs, crypto.NewSuite(ring, r).Sign(qc.Payload()))
	}
	v["crypto.verify_qc_ns"] = timeRounds(30, func() {
		for i := 0; i < 30; i++ {
			suite.VerifyQC(qc, 3)
		}
	})
	// Request digests are memoised on the request, so every round digests
	// requests it has not seen: the cost a primary pays cutting a batch.
	const batches = 20
	fresh := make([][]*types.ClientRequest, probeRounds*batches)
	for b := range fresh {
		reqs := make([]*types.ClientRequest, 100)
		for i := range reqs {
			reqs[i] = &types.ClientRequest{Client: types.ClientID(i + 1), ReqNo: uint64(b + 1), Op: []byte("0123456789abcdef01234")}
		}
		fresh[b] = reqs
	}
	next := 0
	v["crypto.batch_digest_ns"] = timeRounds(batches, func() {
		for i := 0; i < batches; i++ {
			crypto.BatchDigest(fresh[next])
			next++
		}
	})
}

func probeTrusted(v map[string]float64) {
	auth := trusted.NewHMACAuthority(1, 1)
	tc := trusted.New(trusted.Config{Host: 0, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(0)})
	d := crypto.HashBytes([]byte("payload"))
	const n = 2000
	v["trusted.appendf_ns"] = timeRounds(n, func() {
		for i := 0; i < n; i++ {
			tc.AppendF(0, d)
		}
	})
}

func probeKVStore(in probeInputs, v map[string]float64) {
	written := 10_000
	var mix [][]byte
	if in != nil {
		mix, written = in.opMix(), in.writtenKeys()
	}
	if len(mix) == 0 {
		gen := workload.NewGenerator(workload.DefaultConfig())
		for i := 0; i < 4096; i++ {
			mix = append(mix, gen.Next())
		}
	}
	store := kvstore.New(600_000)
	v["kvstore.apply_ns_per_op"] = timeRounds(len(mix), func() {
		for _, op := range mix {
			store.Apply(op)
		}
	})

	// Two-key prepares on fresh keys, as shard_txn's MultiPut sends each
	// participant; the intents are committed outside the timed region.
	const txns = 500
	txid := uint64(0)
	val := []byte("12345678")
	per := make([]int64, probeRounds)
	for r := range per {
		first := txid
		ops := make([][]byte, 0, txns)
		for i := 0; i < txns; i++ {
			txid++
			op, err := kvstore.EncodeTxnPrepare(txid, []kvstore.TxnWrite{
				{Key: 2 * txid, Code: kvstore.OpInsert, Value: val},
				{Key: 2*txid + 1, Code: kvstore.OpInsert, Value: val},
			})
			if err != nil {
				return
			}
			ops = append(ops, op.Encode())
		}
		t0 := now()
		for _, op := range ops {
			store.Apply(op)
		}
		per[r] = now() - t0
		for id := first + 1; id <= txid; id++ {
			store.Apply(kvstore.EncodeTxnDecision(true, id, 0).Encode())
		}
	}
	v["kvstore.txn_prepare_ns_per_op"] = float64(medianInt64(per)) / txns

	snap := kvstore.New(600_000)
	for k := 0; k < written; k++ {
		snap.Apply((&kvstore.Op{Code: kvstore.OpUpdate, Key: uint64(k), Value: val}).Encode())
	}
	v["kvstore.snapshot_us"] = timeRounds(1, func() { snap.Snapshot() }) / 1e3
}

func probeWorkload(seed int64, v map[string]float64) {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	gen := workload.NewGenerator(cfg)
	const n = 20_000
	v["workload.gen_ns_per_op"] = timeRounds(n, func() {
		for i := 0; i < n; i++ {
			gen.Next()
		}
	})
}

// probeTransport measures a two-endpoint ping-pong on each fabric.
func probeTransport(v map[string]float64) error {
	hub := transport.NewHub()
	a := hub.Attach(transport.ReplicaAddr(0), 0)
	b := hub.Attach(transport.ReplicaAddr(1), 0)
	v["transport.rtt_us_hub"] = pingPong(a, b) / 1e3
	a.Close()
	b.Close()

	ta, err := transport.NewTCP(transport.ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		return fmt.Errorf("tcp rtt probe: %w", err)
	}
	defer ta.Close()
	tb, err := transport.NewTCP(transport.ReplicaAddr(1), "127.0.0.1:0", map[int32]string{0: ta.Addr()})
	if err != nil {
		return fmt.Errorf("tcp rtt probe: %w", err)
	}
	defer tb.Close()
	v["transport.rtt_us_tcp"] = pingPong(ta, tb) / 1e3
	return nil
}

// pingPong returns the median round trip in nanoseconds: b sends, a echoes.
func pingPong(a, b transport.Transport) float64 {
	back := make(chan struct{}, 1)
	a.SetHandler(func(env *wire.Envelope) {
		a.Send(transport.ReplicaAddr(1), &wire.Envelope{From: 0, Msg: &types.Commit{View: 1, Seq: 9, Replica: 0}})
	})
	b.SetHandler(func(env *wire.Envelope) { back <- struct{}{} })
	ping := &wire.Envelope{From: 1, Msg: &types.Prepare{View: 1, Seq: 9, Replica: 1}}
	const trips = 400
	rtts := make([]int64, 0, trips)
	for i := 0; i < trips+20; i++ {
		t0 := now()
		b.Send(transport.ReplicaAddr(0), ping)
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			return 0 // a lost ping: report no number rather than hang
		}
		if i >= 20 { // the first trips dial and warm the path
			rtts = append(rtts, now()-t0)
		}
	}
	return float64(medianInt64(rtts))
}

// syncEnv is a synchronous in-memory engine.Env: a send is a direct call into
// the receiving protocol instance, so four instances commit a batch inside
// the OnRequest call that fills it. It is internal/protocols/ptest's shape
// without *testing.T, with always-valid signatures: the probe times protocol
// logic, batching, attested proposal and execution, not signature math
// (crypto has its own probes).
type syncEnv struct {
	id     types.ReplicaID
	n      int
	peers  []*syncEnv
	proto  engine.Protocol
	tc     trusted.Component
	auth   *trusted.HMACAuthority
	store  *kvstore.Store
	msgs   *int64
	queue  *[]func()
	timers map[types.TimerID]time.Duration
}

func (e *syncEnv) ID() types.ReplicaID { return e.id }

// deliver queues a message; the driver drains the queue breadth-first, which
// keeps delivery order deterministic and the stack flat.
func (e *syncEnv) deliver(to types.ReplicaID, m types.Message) {
	*e.msgs++
	from := e.id
	*e.queue = append(*e.queue, func() { e.peers[to].proto.OnMessage(from, m) })
}

func (e *syncEnv) Send(to types.ReplicaID, m types.Message) { e.deliver(to, m) }
func (e *syncEnv) Broadcast(m types.Message) {
	for i := 0; i < e.n; i++ {
		if types.ReplicaID(i) != e.id {
			e.deliver(types.ReplicaID(i), m)
		}
	}
}
func (e *syncEnv) Respond(*types.Response)                     { *e.msgs++ }
func (e *syncEnv) SendClient(types.ClientID, types.Message)    { *e.msgs++ }
func (e *syncEnv) SetTimer(id types.TimerID, d time.Duration)  { e.timers[id] = d }
func (e *syncEnv) CancelTimer(id types.TimerID)                { delete(e.timers, id) }
func (e *syncEnv) Now() time.Duration                          { return 0 }
func (e *syncEnv) Trusted() trusted.Component                  { return e.tc }
func (e *syncEnv) VerifyAttestation(a *types.Attestation) bool { return e.auth.Verify(a) }
func (e *syncEnv) Crypto() crypto.Provider                     { return structuralCrypto{} }
func (e *syncEnv) StateDigest() types.Digest                   { return e.store.StateDigest() }
func (e *syncEnv) SnapshotState() any                          { return e.store.Snapshot() }
func (e *syncEnv) RestoreState(s any)                          { e.store.Restore(s.(*kvstore.Snapshot)) }
func (e *syncEnv) Defer(fn func())                             { fn() }
func (e *syncEnv) Logf(string, ...any)                         {}
func (e *syncEnv) Execute(_ types.SeqNum, b *types.Batch) []types.Result {
	return e.store.ApplyBatch(b)
}
func (e *syncEnv) VerifyAttestationAsync(a *types.Attestation, done func(bool)) {
	done(e.auth.Verify(a))
}

type structuralCrypto struct{}

func (structuralCrypto) Sign([]byte) []byte                               { return []byte("sig") }
func (structuralCrypto) Verify(types.ReplicaID, []byte, []byte) bool      { return true }
func (structuralCrypto) VerifyClient(types.ClientID, []byte, []byte) bool { return true }
func (structuralCrypto) MAC(types.ReplicaID, []byte) []byte               { return []byte("mac") }
func (structuralCrypto) CheckMAC(types.ReplicaID, []byte, []byte) bool    { return true }
func (structuralCrypto) VerifyQC(qc *crypto.QuorumCert, _ int) bool       { return qc != nil }
func (structuralCrypto) VerifyWC(wc *crypto.WindowCert) bool              { return wc != nil && wc.Check() == nil }

// probeProtocols drives four Flexi-BFT instances to commit full batches and
// reports the time and the messages one batch costs. The message count is a
// property of the protocol, not of the host: it repeats exactly.
func probeProtocols(v map[string]float64) error {
	const n, f, batches = 4, 1, 200
	cfg := engine.DefaultConfig(n, f)
	auth := trusted.NewHMACAuthority(99, n)
	var msgs int64
	var queue []func()
	envs := make([]*syncEnv, n)
	for i := range envs {
		id := types.ReplicaID(i)
		envs[i] = &syncEnv{id: id, n: n, peers: envs, auth: auth, msgs: &msgs, queue: &queue,
			tc:     trusted.New(trusted.Config{Host: id, Profile: trusted.ProfileSGXEnclave, Attestor: auth.For(id)}),
			store:  kvstore.New(600_000),
			timers: make(map[types.TimerID]time.Duration),
			proto:  flexibft.New(cfg),
		}
	}
	for _, e := range envs {
		e.proto.Init(e)
	}
	op := (&kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("12345678")}).Encode()
	t0 := now()
	for b := 1; b <= batches; b++ {
		for c := 1; c <= cfg.BatchSize; c++ {
			envs[0].proto.OnRequest(&types.ClientRequest{Client: types.ClientID(c), ReqNo: uint64(b), Op: op})
			for len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				next()
			}
		}
	}
	spent := now() - t0
	if applied := envs[n-1].store.Applied(); applied != batches*uint64(cfg.BatchSize) {
		return fmt.Errorf("protocol probe: a backup applied %d of %d requests", applied, batches*cfg.BatchSize)
	}
	v["protocols.commit_step_us_per_batch"] = float64(spent) / 1e3 / batches
	v["protocols.msgs_per_batch"] = float64(msgs) / batches
	return nil
}

// The simulator probe times the harness's shard-scaling point — Flexi-BFT,
// four co-located groups on the one shared kernel, f=2, 128 clients per
// group, 8 workers per machine, at the windows harness.Scale(16) gives (the
// scale CI and BENCH_baseline.json use) — assembled from harness.GroupConfig
// and sim.NewMultiCluster exactly as harness.ShardScalingGroups assembles
// it, because that function fixes the seed. Only wall-clock numbers are
// reported; the virtual-time results serve the determinism check.
const (
	simGroups  = 4
	simF       = 2
	simClients = 128
	simWorkers = 8
	simWarmup  = 50 * time.Millisecond
	simMeasure = 100 * time.Millisecond
	simRounds  = 3 // a third of a second each
)

func buildSimPoint(seed int64) (*sim.MultiCluster, error) {
	spec, err := harness.ByName("Flexi-BFT")
	if err != nil {
		return nil, err
	}
	opts := harness.DefaultOptions()
	opts.F = simF
	opts.Clients = simClients
	opts.Cost.Workers = simWorkers
	opts.Warmup, opts.Measure = simWarmup, simMeasure
	groups := make([]sim.Config, simGroups)
	for g := range groups {
		g := g
		gopts := opts
		gopts.Seed = sim.SubSeed(seed, g)
		gopts.EngineTweak = func(cfg *engine.Config) { cfg.TrustedNamespace = uint16(g + 1) }
		groups[g] = harness.GroupConfig(spec, gopts)
	}
	return sim.NewMultiCluster(sim.MultiConfig{Seed: seed, Groups: groups}), nil
}

// probeSim builds and runs the point simRounds times under one seed. The
// kernel is single-goroutine and seeded, so every round must give identical
// results, field for field; a round that differs fails the run.
func probeSim(seed int64, v map[string]float64) (err error) {
	per := make([]int64, simRounds)
	var first []sim.Results
	var events uint64
	before := mallocs()
	onOneP(func() {
		for r := range per {
			t0 := now()
			var mc *sim.MultiCluster
			if mc, err = buildSimPoint(seed); err != nil {
				return
			}
			res := mc.Run(simWarmup, simMeasure)
			per[r] = now() - t0
			if r == 0 {
				first = res
				for _, g := range res {
					events += g.Events
				}
				continue
			}
			for g := range res {
				if res[g] != first[g] {
					err = fmt.Errorf("simulator probe: group %d of round %d gave %v, round 0 %v", g, r, res[g], first[g])
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if events == 0 {
		return fmt.Errorf("simulator probe: the point processed no event")
	}
	v["sim.allocs_per_event"] = float64(mallocs()-before) / simRounds / float64(events)
	v["sim.events_per_s"] = float64(events) / (float64(medianInt64(per)) / 1e9)
	return nil
}
