package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// The traced run records spans from the benchmark's own files only, around
// the calls into each layer it can see from outside: one root per sampled
// request and a child at every boundary a request crosses on its way to a
// reply quorum. Nothing inside the replicas is instrumented — the interval
// between a request reaching the primary and the first reply reaching the
// client is one opaque span here, which is exactly the gap ROADMAP item 5
// is about.

// Span names.
const (
	spanSubmit  = "client.submit"     // root: Submit / session op called → returned
	spanSend    = "transport.send"    // inside the client endpoint's Send of the request
	spanDeliver = "transport.deliver" // Send returned → the primary's endpoint delivered the request
	spanReplica = "replica.process"   // request at the primary → first Response at the client endpoint
	spanQuorum  = "client.quorum"     // first Response delivered → Submit returned (quorum collection, wake-up)
)

// traceEvery is the request sampling period on the replicated-store
// workloads: every 16th request of each client becomes a root span. Tracing
// every request of a 40k ops/s run would make the recorder the workload.
const traceEvery = 16

// spanRec is one recorded span. IDs are unique within a trace file.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// reqSlot holds the boundary timestamps of the one sampled request a client
// has outstanding. The client goroutine arms it; the endpoint decorators of
// the client and of the replicas fill it in from their own goroutines.
type reqSlot struct {
	reqNo               atomic.Uint64
	sendStart, sendEnd  atomic.Int64
	arrived, firstReply atomic.Int64
}

// tracer is the traced run's in-memory recorder: span storage, the message
// counters of the transport decorator, and a bounded sample of the envelopes
// that crossed it (the wire probes replay those).
type tracer struct {
	slots []reqSlot // indexed by client id

	mu     sync.Mutex
	spans  []spanRec
	nextID uint64

	sends, sendNs, delivered atomic.Int64
	byType                   [32]atomic.Int64 // sends by types.MsgType
	capMu                    sync.Mutex
	captured                 map[types.MsgType][]*wire.Envelope
}

// capturePerType bounds the envelopes retained per message type.
const capturePerType = 32

func newTracer(maxClientID int) *tracer {
	return &tracer{
		slots:    make([]reqSlot, maxClientID+1),
		captured: make(map[types.MsgType][]*wire.Envelope),
	}
}

// sampled reports whether a client's request number reqNo is traced.
func (t *tracer) sampled(reqNo uint64) bool { return t != nil && reqNo%traceEvery == 0 }

// arm readies client id's slot for a sampled request about to be submitted.
func (t *tracer) arm(id types.ClientID, reqNo uint64) {
	s := &t.slots[id]
	s.sendStart.Store(0)
	s.sendEnd.Store(0)
	s.arrived.Store(0)
	s.firstReply.Store(0)
	s.reqNo.Store(reqNo)
}

// finish turns the armed slot into a root span and its children. Boundaries
// the request never crossed in order (a resend path) are left out rather
// than guessed.
func (t *tracer) finish(id types.ClientID, reqNo uint64, start, end int64) {
	s := &t.slots[id]
	s.reqNo.Store(0)
	bounds := []struct {
		name     string
		from, to int64
	}{
		{spanSend, s.sendStart.Load(), s.sendEnd.Load()},
		{spanDeliver, s.sendEnd.Load(), s.arrived.Load()},
		{spanReplica, s.arrived.Load(), s.firstReply.Load()},
		{spanQuorum, s.firstReply.Load(), end},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	root := t.nextID
	t.spans = append(t.spans, spanRec{ID: root, Name: spanSubmit, Start: start, End: end,
		Note: fmt.Sprintf("client %d req %d", id, reqNo)})
	for _, b := range bounds {
		if b.from == 0 || b.to < b.from {
			continue
		}
		t.nextID++
		t.spans = append(t.spans, spanRec{ID: t.nextID, Parent: root, Name: b.name, Start: b.from, End: b.to})
	}
}

// add appends externally built spans (the sharded workloads' roots and the
// re-parented obs records), assigning ids; parent indexes refer to positions
// in the batch (-1 = root).
func (t *tracer) add(batch []spanRec, parents []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextID
	for i := range batch {
		batch[i].ID = base + uint64(i) + 1
		if parents[i] >= 0 {
			batch[i].Parent = base + uint64(parents[i]) + 1
		}
	}
	t.nextID += uint64(len(batch))
	t.spans = append(t.spans, batch...)
}

// tracedTransport decorates a transport endpoint: it times Send, counts
// messages by type, notes deliveries, keeps a sample of envelopes, and stamps
// the boundaries of sampled requests as they pass.
type tracedTransport struct {
	inner transport.Transport
	self  transport.Addr
	tr    *tracer
}

func (d *tracedTransport) Send(to transport.Addr, env *wire.Envelope) {
	t0 := now()
	d.inner.Send(to, env)
	t1 := now()
	tr := d.tr
	tr.sends.Add(1)
	tr.sendNs.Add(t1 - t0)
	mt := env.Msg.Type()
	if int(mt) < len(tr.byType) && tr.byType[mt].Add(1) <= capturePerType {
		tr.capMu.Lock()
		tr.captured[mt] = append(tr.captured[mt], env)
		tr.capMu.Unlock()
	}
	if req, ok := env.Msg.(*types.ClientRequest); ok && d.self.IsClient {
		if s := &tr.slots[req.Client]; s.reqNo.Load() == req.ReqNo {
			s.sendStart.Store(t0)
			s.sendEnd.Store(t1)
		}
	}
}

func (d *tracedTransport) SetHandler(h transport.Handler) {
	d.inner.SetHandler(func(env *wire.Envelope) {
		d.noteDelivery(env)
		h(env)
	})
}

func (d *tracedTransport) noteDelivery(env *wire.Envelope) {
	tr := d.tr
	tr.delivered.Add(1)
	switch m := env.Msg.(type) {
	case *types.ClientRequest:
		if int(m.Client) < len(tr.slots) {
			if s := &tr.slots[m.Client]; s.reqNo.Load() == m.ReqNo {
				s.arrived.CompareAndSwap(0, now())
			}
		}
	case *types.Response:
		if !d.self.IsClient {
			return
		}
		s := &tr.slots[d.self.Client]
		want := s.reqNo.Load()
		if want == 0 {
			return
		}
		for i := range m.Results {
			if r := &m.Results[i]; uint64(r.Client) == d.self.Client && r.ReqNo == want {
				s.firstReply.CompareAndSwap(0, now())
				return
			}
		}
	}
}

func (d *tracedTransport) Close() error { return d.inner.Close() }

// selfTime is one span name's aggregate: how often it occurred, its total
// duration, and its self time — duration minus the part its children cover.
type selfTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes per-name aggregates over the recorded spans.
func selfTimes(spans []spanRec) map[string]selfTime {
	children := make(map[uint64][]*spanRec)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[string]selfTime)
	for i := range spans {
		s := &spans[i]
		agg := out[s.Name]
		agg.Count++
		agg.TotalNs += s.End - s.Start
		agg.SelfNs += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = agg
	}
	return out
}

// covered returns how much of parent's interval its children cover (the
// union of their intervals, clipped to the parent).
func covered(parent *spanRec, kids []*spanRec) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		from, to := k.Start, k.End
		if from < cursor {
			from = cursor
		}
		if to > parent.End {
			to = parent.End
		}
		if to > from {
			total += to - from
			cursor = to
		}
	}
	return total
}

// durations returns the sorted durations of every span called name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].End-t.spans[i].Start)
		}
	}
	sortInt64(out)
	return out
}

// traceSampling says, in every trace file, which requests it holds.
var traceSampling = fmt.Sprintf("replicated-store workloads: every %dth request of each client; "+
	"sharded workloads: every operation the cluster retained a trace record for, plus every %dth of the rest",
	traceEvery, traceEvery)

// traceFile is the document written when a traced run ends.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Sampling string              `json:"sampling"`
	SelfTime map[string]selfTime `json:"self_time"`
	Spans    []spanRec           `json:"spans"`
}

// write stores the spans under dir as trace-<workload>.json and returns the
// path and the per-name aggregates.
func (t *tracer) write(dir, workload string, seed int64) (string, map[string]selfTime, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	agg := selfTimes(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Sampling: traceSampling, SelfTime: agg, Spans: spans}); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	return path, agg, nil
}
