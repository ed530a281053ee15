// Package common holds everything the protocols share. Base (this file) is
// the scaffolding every implementation embeds: view and primary tracking, the
// batcher/executor wiring, checkpointing, client-request routing (forwarding,
// resends, response caching) and a PBFT-style view-change state machine with
// protocol-specific hooks. slots.go is what every protocol does with its slot
// log. core.go is the one counter-sequenced core of MinBFT, MinZZ, Flexi-BFT
// and Flexi-ZZ, actions.go the two things they do with a bound slot, and
// window.go the windowed attestation the FlexiTrust sequencing allows.
package common

import (
	"encoding/binary"
	"sort"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// Hooks are the protocol-specific callbacks the Base invokes.
type Hooks interface {
	// ProposeBatch is called at the primary for each new consensus batch.
	ProposeBatch(b *types.Batch)
	// BuildViewChange assembles this replica's ViewChange for target view v.
	BuildViewChange(v types.View) *types.ViewChange
	// ValidateViewChange checks another replica's ViewChange message.
	ValidateViewChange(vc *types.ViewChange) bool
	// BuildNewView assembles the NewView from a quorum of ViewChanges; it
	// is called at the incoming primary and may access the trusted
	// component (Create / AppendF for re-proposals).
	BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView
	// ProcessNewView validates and installs a NewView at a backup,
	// returning false to reject it. On success the Base enters the view.
	ProcessNewView(nv *types.NewView) bool
	// OnStableCheckpoint lets the protocol GC per-slot state.
	OnStableCheckpoint(seq types.SeqNum)
	// CheckpointAttestation optionally attaches a trusted attestation to
	// checkpoint messages (trust-bft protocols); Base's own returns nil.
	CheckpointAttestation(seq types.SeqNum, state types.Digest) *types.Attestation
}

// Base is embedded by every protocol implementation.
type Base struct {
	Env   engine.Env
	Cfg   engine.Config
	Hooks Hooks

	View         types.View
	InViewChange bool

	Exec    *engine.Executor
	Batcher *engine.Batcher
	Ckpt    *engine.CheckpointTracker
	Cache   *engine.ResponseCache

	// Quorum is the protocol's one quorum — votes, view changes and stable
	// checkpoints: 2f+1 of 3f+1 replicas, or f+1 of trust-bft's 2f+1.
	Quorum int
	// Speculative marks client responses as speculative (engine.Meta.Speculative).
	Speculative bool
	// History is the chained execution digest Zyzzyva's responses carry; it
	// stays zero in every protocol that does not advance it.
	History types.Digest

	// LastProposed is the highest sequence number this replica proposed as
	// primary (gates sequential protocols).
	LastProposed types.SeqNum

	// SeqReady, when non-nil, replaces the default sequential-readiness
	// test (LastProposed executed). Speculative sequential protocols use it
	// to gate the next instance on replica acknowledgements, since their
	// primary executes at propose time.
	SeqReady func() bool

	// StableWindowAnchor makes the parallel in-flight window count from the
	// last stable checkpoint instead of local execution. Speculative
	// protocols need it: their primary executes at propose time, so the
	// local-execution anchor would never bind and an unpaced primary lets
	// closed-loop bursts synchronize into throughput-destroying waves.
	StableWindowAnchor bool

	// viewChanges counts views installed after genesis (health monitoring).
	viewChanges uint64

	// inProgress holds the requests between arrival and execution: it dedups
	// re-deliveries (resends, forwards) and is what EnterView re-routes toward
	// a new primary. Bounded to maxHeldPerClient requests per client id (a
	// client has one request outstanding; a Session shared by goroutines, or
	// renewing a lease while it works, briefly has a few). A client past the
	// bound loses only this bookkeeping for its oldest request, which stays
	// routed: a re-delivery of it may be batched twice and is then skipped by
	// the executor's duplicate filter.
	inProgress map[types.ClientID]heldRequests
	// forwarded counts requests sent to the primary that have not executed.
	forwarded  int
	lastExecAt time.Duration
	vcVotes    map[types.View]map[types.ReplicaID]*types.ViewChange
	nvSent     map[types.View]bool

	// certified marks the slots whose client commit certificate already
	// passed its quorum check (OnCommitCert), until the stable checkpoint.
	certified map[types.SeqNum]bool

	// reqDigest is AdmitRequest's scratch: the digest a client authenticator
	// is checked over, kept here so handing it to Crypto() allocates nothing.
	reqDigest types.Digest
	// admitted holds, per slot until the stable checkpoint, the digest of the
	// last batch whose requests passed Admit here: the same batch reported in
	// a view change or re-proposed in a NewView is not checked twice.
	admitted map[types.SeqNum]types.Digest

	// sigMemo caches verified protocol signatures (view-change votes, the
	// speculative primaries' batch signatures) so NewView processing and
	// catch-up replays never re-pay a verification; lazily created.
	sigMemo *crypto.VerifyMemo

	// stableSnapshot supports speculative rollback: what execution had
	// produced at the last stable checkpoint — at genesis, before the first
	// (only kept when CaptureSnapshots).
	CaptureSnapshots bool
	stableSnapshot   *snapshot
	pendingSnapshots map[types.SeqNum]*snapshot
}

// snapshot is everything speculative execution changes, as of one sequence
// number. The response cache belongs to it because it decides what executes:
// rolled back without it, a replica would skip the re-proposal of exactly the
// request whose execution it just undid.
type snapshot struct {
	seq     types.SeqNum
	state   any
	cache   *engine.ResponseCache
	history types.Digest
}

// InitBase wires the shared machinery around Cfg, Quorum and the other fields
// the protocol's constructor set. respond is the protocol's response
// constructor invoked after each in-order execution.
func (b *Base) InitBase(env engine.Env, hooks Hooks,
	respond func(seq types.SeqNum, batch *types.Batch, results []types.Result)) {
	b.Env = env
	b.Hooks = hooks
	b.inProgress = make(map[types.ClientID]heldRequests)
	b.vcVotes = make(map[types.View]map[types.ReplicaID]*types.ViewChange)
	b.nvSent = make(map[types.View]bool)
	b.pendingSnapshots = make(map[types.SeqNum]*snapshot)
	b.Cache = engine.NewResponseCache()
	if b.CaptureSnapshots {
		b.stableSnapshot = b.snapshotAt(0)
	}
	b.Exec = engine.NewExecutor(env, func(seq types.SeqNum, batch *types.Batch, results []types.Result) {
		for _, r := range batch.Requests {
			b.release(r)
		}
		if b.forwarded > 0 {
			b.forwarded = 0 // progress happened; stop suspecting
			b.Env.CancelTimer(types.TimerID{Kind: types.TimerViewChange})
		}
		b.lastExecAt = env.Now()
		respond(seq, batch, results)
	})
	b.Exec.SetOnExec(b.maybeCheckpoint)
	// At-most-once execution: a request re-proposed after a view change
	// (the client resent it, or the new primary both re-proposed the old
	// slot and batched the resend) is skipped the second time.
	b.Exec.SetFilter(func(r *types.ClientRequest) bool {
		return !b.Cache.Executed(r.Client, r.ReqNo)
	})
	b.Batcher = engine.NewBatcher(env, b.Cfg, func(batch *types.Batch) {
		hooks.ProposeBatch(batch)
	})
	b.Batcher.SetGate(b.proposeGate, !b.Cfg.Parallel)
	b.Ckpt = engine.NewCheckpointTracker(b.Quorum, func(seq types.SeqNum) {
		b.promoteSnapshot(seq)
		DropThrough(b.certified, seq)
		DropThrough(b.admitted, seq)
		hooks.OnStableCheckpoint(seq)
	})
}

// proposeGate bounds in-flight instances: sequential protocols allow one,
// parallel protocols allow Window.
func (b *Base) proposeGate() bool {
	if b.InViewChange {
		return false
	}
	anchor := int(b.Exec.LastExecuted())
	window := b.Cfg.Window
	if window <= 0 {
		window = 128
	}
	if b.StableWindowAnchor {
		anchor = int(b.Ckpt.StableSeq())
		// Checkpoint granularity bounds how fresh the anchor can be; widen
		// the window so steady state is never throttled by it.
		window += int(b.Cfg.CheckpointEvery)
	}
	inflight := int(b.LastProposed) - anchor
	if inflight < 0 {
		inflight = 0
	}
	if !b.Cfg.Parallel {
		if b.SeqReady != nil {
			return b.SeqReady()
		}
		return inflight == 0
	}
	return inflight < window
}

// PrimaryID returns the primary of the current view.
func (b *Base) PrimaryID() types.ReplicaID { return types.Primary(b.View, b.Cfg.N) }

// IsPrimary reports whether this replica leads the current view.
func (b *Base) IsPrimary() bool { return b.Env.ID() == b.PrimaryID() }

// Status implements engine.StatusReporter: the replica's consensus position
// for health monitoring. Call only from within the replica's event context.
func (b *Base) Status() engine.Status {
	return engine.Status{
		View:         b.View,
		Primary:      b.PrimaryID(),
		InViewChange: b.InViewChange,
		LastExecuted: b.Exec.LastExecuted(),
		ViewChanges:  b.viewChanges,
	}
}

// OnRequest implements engine.Protocol.
func (b *Base) OnRequest(req *types.ClientRequest) { b.HandleRequest(req) }

// OnTimer implements engine.Protocol for protocols with no timers of their own.
func (b *Base) OnTimer(id types.TimerID) { b.HandleBaseTimer(id) }

// HandleShared is the tail of every protocol's OnMessage: the message kinds
// whose handling no protocol changes.
func (b *Base) HandleShared(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Checkpoint:
		b.HandleCheckpoint(msg)
	case *types.ViewChange:
		b.HandleViewChange(msg)
	case *types.NewView:
		b.HandleNewView(from, msg)
	case *types.Forward:
		b.HandleForward(msg)
	case *types.ClientResend:
		b.HandleResend(msg.Request)
	}
}

// AdmitRequest is the client-authentication gate: req's authenticator entry
// for this replica must verify over its RequestDigest. A request reaches
// hold, the batcher or a vote only through it, whichever way it arrived: from
// its client, forwarded, resent, or inside a proposal (Admit). The codec
// decodes a Forward's or a resend's request as optional: nil is refused.
func (b *Base) AdmitRequest(req *types.ClientRequest) bool {
	if req == nil {
		return false
	}
	b.reqDigest = crypto.RequestDigest(req)
	return b.Env.Crypto().VerifyClient(req.Client, b.reqDigest[:], req.Sig)
}

// Admit is the predicate a proposal taken off the wire, live or as a NewView
// proposal, must pass before this replica votes on or executes it: it is
// WellFormed, its requests hash to its digest (a no-op carries none, under
// the zero digest), so a primary cannot attest one digest and hand backups
// different contents under it, and every request passes AdmitRequest —
// unless this replica already admitted the batch with that digest for that
// slot, which the digest binding makes these very requests.
func (b *Base) Admit(pp *types.Preprepare) bool {
	if !WellFormed(pp) {
		return false
	}
	reqs := pp.Batch.Requests
	want := types.ZeroDigest
	if len(reqs) > 0 {
		want = crypto.BatchDigest(reqs)
	}
	if pp.Batch.Digest != want {
		return false
	}
	if d, ok := b.admitted[pp.Seq]; ok && d == pp.Batch.Digest {
		return true
	}
	for _, r := range reqs {
		if !b.AdmitRequest(r) {
			return false
		}
	}
	if b.admitted == nil {
		b.admitted = make(map[types.SeqNum]types.Digest)
	}
	b.admitted[pp.Seq] = pp.Batch.Digest
	return true
}

// HandleRequest admits a client request and routes it.
func (b *Base) HandleRequest(req *types.ClientRequest) {
	if b.AdmitRequest(req) {
		b.route(req)
	}
}

// route sends an admitted request on: the primary batches it, backups
// forward it to the primary and arm the progress timer that triggers view
// changes when the primary stalls.
func (b *Base) route(req *types.ClientRequest) {
	if !b.hold(req) {
		return
	}
	if b.IsPrimary() {
		b.Batcher.Add(req)
		return
	}
	b.Env.Send(b.PrimaryID(), &types.Forward{Replica: b.Env.ID(), Request: req})
	b.armProgressTimer()
}

// maxHeldPerClient bounds Base.inProgress per client id.
const maxHeldPerClient = 4

// heldRequests is one client's requests in progress, in no order. It is a
// map value, not a pointer: holding and releasing a request allocates nothing.
type heldRequests struct {
	n    int
	reqs [maxHeldPerClient]*types.ClientRequest
}

// hold records req as in progress. It returns false, and the caller drops
// req, when req has executed or is already held.
func (b *Base) hold(req *types.ClientRequest) bool {
	if b.Cache.Executed(req.Client, req.ReqNo) {
		return false
	}
	h := b.inProgress[req.Client]
	oldest := 0
	for i, held := range h.reqs[:h.n] {
		if held.ReqNo == req.ReqNo {
			return false
		}
		if held.ReqNo < h.reqs[oldest].ReqNo {
			oldest = i
		}
	}
	if h.n < len(h.reqs) {
		h.reqs[h.n] = req
		h.n++
	} else {
		h.reqs[oldest] = req
	}
	b.inProgress[req.Client] = h
	return true
}

// release forgets an executed request.
func (b *Base) release(req *types.ClientRequest) {
	h := b.inProgress[req.Client]
	for i, held := range h.reqs[:h.n] {
		if held.ReqNo != req.ReqNo {
			continue
		}
		h.n--
		h.reqs[i], h.reqs[h.n] = h.reqs[h.n], nil
		if h.n == 0 {
			delete(b.inProgress, req.Client)
		} else {
			b.inProgress[req.Client] = h
		}
		return
	}
}

// armProgressTimer starts the stall detector if not already pending.
func (b *Base) armProgressTimer() {
	b.forwarded++
	if b.forwarded == 1 {
		b.Env.SetTimer(types.TimerID{Kind: types.TimerViewChange}, b.Cfg.ViewChangeTimeout)
	}
}

// HandleResend serves a client's re-broadcast request: answer from the
// response cache if executed, otherwise route toward the primary.
func (b *Base) HandleResend(req *types.ClientRequest) {
	if !b.AdmitRequest(req) {
		return
	}
	if resp := b.Cache.Get(req.Client, req.ReqNo); resp != nil {
		b.Env.Respond(resp)
		return
	}
	b.route(req)
}

// HandleForward delivers a forwarded request at the primary, which checks its
// own entry of the client's authenticator: the forwarding backup vouches for
// nothing.
func (b *Base) HandleForward(f *types.Forward) {
	if b.IsPrimary() && b.AdmitRequest(f.Request) && b.hold(f.Request) {
		b.Batcher.Add(f.Request)
	}
}

// Respond answers the clients of an executed batch and caches the response
// for resends; a gap-filling no-op has nobody to answer. Every protocol
// passes it to InitBase, directly or after advancing History.
func (b *Base) Respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return
	}
	resp := &types.Response{
		Replica:     b.Env.ID(),
		View:        b.View,
		Seq:         seq,
		Digest:      batch.Digest,
		History:     b.History,
		Results:     results,
		Speculative: b.Speculative,
	}
	b.Cache.Put(resp)
	b.Env.Respond(resp)
}

// CheckpointAttestation implements Hooks for protocols whose checkpoints
// carry no attestation.
func (b *Base) CheckpointAttestation(types.SeqNum, types.Digest) *types.Attestation { return nil }

// maybeCheckpoint broadcasts a checkpoint at every interval boundary and
// records a local state snapshot candidate for speculative rollback.
func (b *Base) maybeCheckpoint(seq types.SeqNum, _ *types.Batch) {
	every := b.Cfg.CheckpointEvery
	if every == 0 || uint64(seq)%every != 0 {
		return
	}
	if b.CaptureSnapshots {
		b.pendingSnapshots[seq] = b.snapshotAt(seq)
	}
	ck := &types.Checkpoint{
		Replica:     b.Env.ID(),
		Seq:         seq,
		StateDigest: b.Env.StateDigest(),
		Attest:      b.Hooks.CheckpointAttestation(seq, b.Env.StateDigest()),
	}
	b.Ckpt.Add(ck) // own vote
	b.Env.Broadcast(ck)
}

// HandleCheckpoint folds in a peer's checkpoint vote. Attested checkpoints
// verify off the event goroutine: CheckpointTracker.Add is idempotent and
// order-insensitive, so folding the vote in from the completion event is
// safe regardless of what committed in between.
func (b *Base) HandleCheckpoint(ck *types.Checkpoint) {
	if ck.Attest == nil {
		b.Ckpt.Add(ck)
		return
	}
	b.Env.VerifyAttestationAsync(ck.Attest, func(ok bool) {
		if ok {
			b.Ckpt.Add(ck)
		}
	})
}

// VerifySigMemo checks signer's signature over payload like
// Crypto().Verify, but remembers successes so the same statement — a
// view-change vote re-carried inside a NewView, a resent speculative proposal
// — verifies once per process.
func (b *Base) VerifySigMemo(signer types.ReplicaID, payload, sig []byte) bool {
	if b.sigMemo == nil {
		b.sigMemo = crypto.NewVerifyMemo(0)
	}
	key := crypto.SigMemoKey(signer, crypto.HashBytes(payload))
	if b.sigMemo.Seen(key) {
		b.Cfg.Observer.Metrics().Counter(obs.MSigVerifyCacheHits).Inc()
		return true
	}
	b.Cfg.Observer.Metrics().Counter(obs.MSigVerifies).Inc()
	if !b.Env.Crypto().Verify(signer, payload, sig) {
		return false
	}
	b.sigMemo.Record(key)
	return true
}

// promoteSnapshot retains the snapshot matching the new stable checkpoint
// and drops older candidates.
func (b *Base) promoteSnapshot(seq types.SeqNum) {
	if !b.CaptureSnapshots {
		return
	}
	if snap, ok := b.pendingSnapshots[seq]; ok {
		b.stableSnapshot = snap
	}
	DropThrough(b.pendingSnapshots, seq)
}

// snapshotAt captures what execution has produced, as of seq.
func (b *Base) snapshotAt(seq types.SeqNum) *snapshot {
	return &snapshot{seq: seq, state: b.Env.SnapshotState(), cache: b.Cache.Clone(), history: b.History}
}

// RollbackToStable rewinds speculative execution to the last stable
// checkpoint (InstallSpeculative is its one caller). It returns the sequence
// number execution resumes after.
func (b *Base) RollbackToStable() types.SeqNum {
	snap := b.stableSnapshot
	if snap == nil {
		// Snapshots are off (CaptureSnapshots): nothing to return to.
		return b.Exec.LastExecuted()
	}
	b.Env.RestoreState(snap.state)
	// The snapshot keeps its own copy: this one goes back to work, and a later
	// rollback may land here again.
	b.Cache, b.History = snap.cache.Clone(), snap.history
	b.Exec.SetLastExecuted(snap.seq)
	return snap.seq
}

// --- View changes ---

// SuspectPrimary initiates a view change toward View+1.
func (b *Base) SuspectPrimary() {
	if b.InViewChange {
		return
	}
	b.StartViewChange(b.View + 1)
}

// StartViewChange broadcasts this replica's ViewChange for view v.
func (b *Base) StartViewChange(v types.View) {
	if v <= b.View {
		return
	}
	b.InViewChange = true
	// Abandoning the current primary invalidates any read lease it granted:
	// stop local serving the moment this replica votes the view out, not
	// only when the successor installs.
	b.revokeLease()
	vc := b.Hooks.BuildViewChange(v)
	vc.Replica = b.Env.ID()
	vc.NewView = v
	vc.Sig = b.Env.Crypto().Sign(viewChangePayload(vc))
	b.recordViewChange(vc)
	b.Env.Broadcast(vc)
	// If the new primary never installs the view, escalate.
	b.Env.SetTimer(types.TimerID{Kind: types.TimerViewChange, View: v}, 2*b.Cfg.ViewChangeTimeout)
	// The incoming primary may have every other vote it will accept already:
	// its own can complete the quorum.
	b.installIfQuorum(v)
}

// viewChangePayload is the signed content of a ViewChange.
func viewChangePayload(vc *types.ViewChange) []byte {
	buf := make([]byte, 0, 12+32)
	buf = binary.BigEndian.AppendUint32(buf, uint32(vc.Replica))
	buf = binary.BigEndian.AppendUint64(buf, uint64(vc.NewView))
	if vc.Checkpoint != nil {
		buf = append(buf, vc.Checkpoint.StateDigest[:]...)
	}
	return buf
}

// HandleViewChange records a peer's view-change vote and, at the incoming
// primary, installs the new view once a quorum forms. Backups join a view
// change once f+1 distinct replicas demand it (they cannot all be faulty).
func (b *Base) HandleViewChange(vc *types.ViewChange) {
	if vc.NewView <= b.View {
		return
	}
	if !b.VerifySigMemo(vc.Replica, viewChangePayload(vc), vc.Sig) {
		return
	}
	if !b.Hooks.ValidateViewChange(vc) {
		return
	}
	if types.Primary(vc.NewView, b.Cfg.N) == b.Env.ID() && !b.AdmitReports(vc) {
		return
	}
	b.recordViewChange(vc)
	votes := b.vcVotes[vc.NewView]
	// Join the view change once f+1 replicas demand it.
	if len(votes) >= b.Cfg.F+1 && !b.InViewChange {
		b.StartViewChange(vc.NewView)
	}
	b.installIfQuorum(vc.NewView)
}

// installIfQuorum has the incoming primary of view v broadcast the NewView
// and install it locally, once, when a quorum of votes is in.
func (b *Base) installIfQuorum(v types.View) {
	votes := b.vcVotes[v]
	if len(votes) < b.Quorum || types.Primary(v, b.Cfg.N) != b.Env.ID() || b.nvSent[v] {
		return
	}
	b.nvSent[v] = true
	vcs := make([]*types.ViewChange, 0, len(votes))
	for _, vc := range votes {
		vcs = append(vcs, vc)
	}
	nv := b.Hooks.BuildNewView(v, vcs)
	b.Env.Broadcast(nv)
	b.EnterView(nv.View)
}

// recordViewChange stores a vote.
func (b *Base) recordViewChange(vc *types.ViewChange) {
	votes := b.vcVotes[vc.NewView]
	if votes == nil {
		votes = make(map[types.ReplicaID]*types.ViewChange)
		b.vcVotes[vc.NewView] = votes
	}
	votes[vc.Replica] = vc
}

// HandleNewView validates and installs a NewView at a backup.
func (b *Base) HandleNewView(from types.ReplicaID, nv *types.NewView) {
	if nv.View <= b.View {
		return
	}
	if types.Primary(nv.View, b.Cfg.N) != from {
		return
	}
	if len(nv.ViewChanges) < b.Quorum {
		return
	}
	seen := make(map[types.ReplicaID]bool)
	for _, vc := range nv.ViewChanges {
		if vc.NewView != nv.View || seen[vc.Replica] {
			return
		}
		// Memoized: votes this replica already verified when they arrived
		// as loose ViewChange messages are free here.
		if !b.VerifySigMemo(vc.Replica, viewChangePayload(vc), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	if !b.Hooks.ProcessNewView(nv) {
		return
	}
	b.EnterView(nv.View)
}

// EnterView installs view v, resets view-change state and re-routes the
// requests held for the old view toward the new primary.
func (b *Base) EnterView(v types.View) {
	if v <= b.View && v != 0 {
		return
	}
	b.View = v
	b.InViewChange = false
	b.viewChanges++
	// Deterministic lease revocation on view change: whatever lease the old
	// view's primary held is dead in this view until a fresh grant commits.
	b.revokeLease()
	if v != 0 {
		// Shard groups run in trusted namespace s+1; standalone clusters
		// (namespace 0) journal as cluster-wide.
		b.Cfg.Observer.Journal().Record(obs.EventViewChange, int(b.Cfg.TrustedNamespace)-1,
			"replica %d installed view %d", b.Env.ID(), v)
	}
	b.Env.CancelTimer(types.TimerID{Kind: types.TimerViewChange, View: v})
	b.Env.CancelTimer(types.TimerID{Kind: types.TimerViewChange})
	b.forwarded = 0
	b.lastExecAt = b.Env.Now()
	for view := range b.vcVotes {
		if view <= v {
			delete(b.vcVotes, view)
		}
	}
	// What the batcher queued in the old view is held, and reroute routes it
	// afresh: the primary queues it once, a backup forwards it. At an idle
	// primary it waits for its batch to fill or its timeout, like any request.
	b.Batcher.Reset()
	b.reroute()
}

// reroute passes every request still held through route again, as if
// its client had resent it the moment the view installed: the new primary
// batches it, a backup forwards it and thereby arms its progress timer, so
// the new primary is watched from its first instant rather than from the
// next client resend. A request the old view did commit is skipped on
// arrival (Cache.Executed) or on its second execution (the executor's
// duplicate filter), so execution stays at-most-once. (Client, ReqNo) order
// keeps the simulator seed-deterministic.
func (b *Base) reroute() {
	held := make([]*types.ClientRequest, 0, len(b.inProgress))
	for _, h := range b.inProgress {
		held = append(held, h.reqs[:h.n]...)
	}
	clear(b.inProgress)
	sort.Slice(held, func(i, j int) bool {
		if held[i].Client != held[j].Client {
			return held[i].Client < held[j].Client
		}
		return held[i].ReqNo < held[j].ReqNo
	})
	for _, req := range held {
		b.route(req)
	}
}

// revokeLease deactivates this node's read-lease tracker (nil-safe) and
// counts the revocation.
func (b *Base) revokeLease() {
	if b.Cfg.Lease == nil {
		return
	}
	if _, active := b.Cfg.Lease.Epoch(); active {
		b.Cfg.Observer.Metrics().Counter(obs.MLeaseRevocations).Inc()
	}
	b.Cfg.Lease.Revoke()
}

// HandleBaseTimer processes the timers the Base owns; it returns true when
// the timer was consumed.
func (b *Base) HandleBaseTimer(id types.TimerID) bool {
	switch id.Kind {
	case types.TimerBatch:
		// Handled wherever it fires: the batcher's timer state must clear
		// even mid view change, where the gate holds the cut. A backup's
		// batcher is empty (EnterView resets it), so the timer is a no-op
		// there.
		b.Batcher.OnTimer()
		return true
	case types.TimerViewChange:
		if id.View > b.View {
			// New view never installed; escalate to the next one.
			b.StartViewChange(id.View + 1)
			return true
		}
		if b.forwarded > 0 && b.Env.Now()-b.lastExecAt >= b.Cfg.ViewChangeTimeout {
			b.SuspectPrimary()
		}
		return true
	}
	return false
}
