// Package flexitrust is a from-scratch Go reproduction of "Dissecting BFT
// Consensus: In Trusted Components we Trust!" (EuroSys 2023): the FlexiTrust
// protocol suite (Flexi-BFT, Flexi-ZZ), every baseline the paper evaluates
// (PBFT, Zyzzyva, PBFT-EA/OPBFT-EA, MinBFT, MinZZ), the trusted-component
// substrate they rely on, a real runtime with in-process and TCP transports,
// and a discrete-event simulation harness that regenerates every figure and
// table in the paper's evaluation.
//
// # Quick start
//
//	cluster, _ := flexitrust.NewCluster(flexitrust.ClusterOptions{
//	    Protocol: flexitrust.FlexiBFT,
//	    F:        1,
//	    Clients:  []flexitrust.ClientID{1},
//	})
//	defer cluster.Stop()
//	client := cluster.NewClient(1)
//	res, _ := client.Submit(ctx, flexitrust.Update(42, []byte("hello")))
//
// # Picking a protocol
//
// The paper's dissection: the protocols differ in how a batch is bound to a
// slot and in what a replica does with a bound slot, and in nothing else.
// Each is those two parts; internal/protocols/common holds the parts.
//
//	                 binding a batch to a slot              acting on a bound slot
//	PBFT             none: primary's word, n = 3f+1         three-phase vote
//	Zyzzyva          none: primary's signature, n = 3f+1    speculative execution
//	PBFTEA           attested log per phase, n = 2f+1       three-phase vote
//	MinBFT           every replica's Append, n = 2f+1       two-phase vote
//	MinZZ            every replica's Append, n = 2f+1       speculative execution
//	FlexiBFT         primary-only AppendF, n = 3f+1         two-phase vote
//	FlexiZZ          primary-only AppendF, n = 3f+1         speculative execution
//
// FlexiBFT is the paper's headline general-purpose protocol (two phases, one
// trusted-counter access per consensus, parallel instances); FlexiZZ its
// highest-throughput one (one phase, always fast-path with n−f replies). PBFT
// and Zyzzyva are the classic baselines without trusted components. The 2f+1
// trust-bft protocols are provided for comparison; see the paper's Sections
// 5–7 for why their responsiveness, rollback-safety and sequential-throughput
// caveats matter. The last four rows are one implementation
// (common.Core) with two sequencings (common.TrustBFT, common.FlexiTrust) and
// two slot actions (common.TwoPhase, common.Speculation) — Section 8's
// "MinBFT and MinZZ with three changes", as data.
//
// Every protocol list — these constants, the experiments' lineup, the
// -protocol flags — is read from one registry, internal/protocols, which
// derives the rest from each protocol's Meta. -protocol ignores case and
// hyphens: Flexi-BFT, flexi-bft and flexibft are one protocol.
//
// # Sharded deployment
//
// FlexiTrust's defining property — the trusted counter is touched once per
// consensus, at the primary, so instances run fully in parallel — also
// composes across consensus groups. NewShardedCluster runs S independent
// groups, each with its own replicas and a private trusted-counter
// namespace, behind a deterministic keyspace router:
//
//	cluster, _ := flexitrust.NewShardedCluster(flexitrust.ShardOptions{
//	    Shards:   4,
//	    Protocol: flexitrust.FlexiBFT,
//	    Clients:  []flexitrust.ClientID{1},
//	})
//	defer cluster.Stop()
//	sess := cluster.Session(1)
//	sess.Put(ctx, 42, []byte("hello"))        // routed to ShardFor(42)
//	vals, vers, _ := sess.MultiGet(ctx, []uint64{42, 99, 7})
//
// Single-key operations take a fast path to the one group owning the key;
// MultiGet reads across shards read-committed, fenced by per-shard commit
// watermarks, and reports the per-shard versions it read at (vers).
//
// Co-location is where the protocol choice bites, and the simulation
// substrate measures it the honest way: the shard-scaling experiments run
// all S groups inside ONE discrete-event kernel (sim.MultiCluster) on one
// shared set of machines — machine m hosts one replica of every group, with
// each group's primary on a different machine — so co-located groups
// genuinely contend on each machine's CPU workers and its trusted
// component's timeline. Flexi-BFT/Flexi-ZZ scale near-linearly with S
// because their one-per-consensus AppendF counters live in per-group
// namespaces inside the shared component and interleave freely. MinBFT and
// MinZZ stay flat because their host-sequenced counters (USIG) attest one
// totally-ordered stream per machine, consumed gap-free: every time a
// different co-hosted group appends, the stream must drain and retarget
// (sim.Machine's stream tenancy), so the groups end up time-sharing the
// machine's trusted-component timeline. Reproduce the contrast with
// `benchrunner -exp shard` or BenchmarkShardedThroughput.
//
// # Cross-shard transactions
//
// A multi-key write spanning shards is atomic: ShardSession.MultiPut (and
// the more general ShardSession.Txn) runs two-phase commit over the
// participant groups with a FlexiTrust attested counter as the
// commit-point arbiter. Phase 1 installs per-key intents on each
// participant shard through that shard's own consensus (so prepared state
// is replicated and survives f replica failures); the decision is then ONE
// internally-incremented attested counter access binding
// Attest(q, k, H(decision ‖ txid)) — the paper's one-access-per-consensus
// property applied to the commit point — published to a first-wins
// attestation log; phase 2 drives the decision to the participants:
//
//	sess := cluster.Session(1)
//	err := sess.MultiPut(ctx, map[uint64][]byte{3: a, 9: b, 21: c}) // all-or-nothing
//
// A transaction IS committed iff a verified commit attestation for its id
// is published: a Byzantine coordinator cannot forge one (the component
// signs, the host cannot), and minting both outcomes loses to the log's
// first-wins rule, so the decision is non-equivocable. If a coordinator
// crashes mid-flight, readers see the pending state explicitly — MultiGet
// returns per-key ReadResult values whose BlockedBy field names the
// transaction holding an intent on the key (with the read-committed
// fallback value), instead of silently serving a stale read — and anyone
// may settle the transaction after an in-doubt timeout with
// ShardSession.ResolveTxn: a published decision wins, otherwise the
// arbiter mints an abort that also poisons the id on shards whose Prepare
// never arrived.
//
// The commit path is measured under co-location on the shared-kernel
// simulator (`benchrunner -exp txn`, examples/transactions): FlexiBFT's
// decision accesses interleave freely with the co-hosted groups'
// namespaced counters, so cross-shard transaction latency stays within 2x
// of a single-shard write even at high multi-shard mixes, while
// MinBFT-style host-sequenced decisions time-share each machine's attested
// stream and degrade.
//
// # Elastic placement & rebalancing
//
// The keyspace is owned through an epoch-versioned PlacementMap: explicit
// hash-range → group assignments under a monotonically increasing epoch,
// with a deterministic serialization and digest. Epoch 1 is the uniform
// split; every committed rebalance installs a successor map at epoch+1.
// Sessions route by their cached epoch and, when a store answers that a
// range moved (or is mid-handoff), transparently refresh and retry — an
// epoch flip costs clients a latency blip, never an error.
//
// A live migration moves one hash range between groups while both keep
// serving:
//
//	sess := cluster.Session(1)
//	r := cluster.Placement().GroupRanges(0)[0]      // a range group 0 owns
//	res, err := sess.Rebalance(ctx, flexitrust.KeyRange{Start: r.Start, End: r.Start + (r.End-r.Start)/2}, 1)
//
// The handoff reuses the transaction machinery end to end: prepare
// freezes the range on the source (writes to it are refused until the
// decision; reads keep serving) and exports its records — one consensus
// operation whose deterministic result every replica computes — then
// stages the export on the destination through the destination's own
// consensus. The commit point is ONE attested counter access binding
// H(handoff id ‖ new epoch ‖ new placement digest), published to the same
// first-wins attestation log transactions use; the log additionally
// enforces one placement decision per epoch, so two handoffs (or a
// Byzantine orchestrator minting two conflicting maps) can never both
// activate — no two groups can simultaneously own a range. On commit the
// source deletes and RELEASES the range (late operations answer the
// wrong-shard retry signal) and the destination claims it; an orchestrator
// crash at any boundary resolves through the log exactly like an in-doubt
// transaction (ShardSession.ResolveTxn), with zero lost and zero
// doubly-owned keys either way.
//
// Decision history is compacted by a gossiped stability watermark — the
// oldest transaction/handoff id any coordinator may still retry.
// ShardSession.CompactTxnHistory prunes the attestation log and every
// shard's per-id decision table below it; late retries of pruned ids are
// refused deterministically instead of re-acted.
//
// The migration cost is measured mid-workload on the shared kernel (the
// `rebalance` row of the harness experiment table, run by `benchrunner
// -exp rebalance` and examples/rebalancing): probe writers in the
// migrating range surface the availability dip between freeze and flip.
// FlexiBFT keeps the window short and recovers steady-state throughput
// right after the flip; MinBFT's host-sequenced component stretches both
// the handoff's consensus rounds and the flip access, so the range stays
// unavailable materially longer.
//
// # Per-shard failover
//
// Each group runs its own view-change machinery, and the sharded cluster
// surfaces it: ShardedCluster.Health (and ShardSession.Health) samples
// every group's {view, primary, stalled-since, commit watermark} through a
// progress probe on each replica's event goroutine and classifies groups
// Healthy, ViewChanging or Stalled. Routing is health-aware — a session
// briefly defers to an in-progress election instead of piling requests
// onto a dead primary (then submits anyway, since client resends are what
// drive a stalled election), fails fast with ErrShardDegraded once a group
// is Stalled past the threshold (ShardOptions.StallTimeout), reports a
// degraded shard's keys explicitly in MultiGet (ReadResult.Unavailable)
// rather than blocking the whole read, and a cross-shard transaction with
// a Stalled participant aborts before any intent installs:
//
//	for _, h := range cluster.Health() {
//	    fmt.Println(h.Group, h.State, h.View, h.PrimaryUp)
//	}
//
// A failover is not new machinery — it is a placement change.
// ShardedCluster.Failover evacuates a degraded group's ranges to the
// healthy groups through Session.Rebalance: each range's epoch bump is
// bound to ONE attested counter access published to the same
// first-wins-per-id-and-per-epoch attestation log, so two orchestrators
// racing to fail the same group over can never both re-point a range, and
// an orchestrator crash at any boundary resolves through the log with
// zero lost and zero doubly-owned keys. The evacuation's freeze rides the
// degraded group's own consensus — its resends are exactly what push the
// surviving backups into the view change — so evacuating a merely
// primary-less group also heals it. Recovery timeouts plumb through
// ShardOptions (ViewChangeTimeout, ClientRetry, StallTimeout); per-group
// view numbers and the cluster view-change count surface in Stats.
//
// A primary crash costs the failure detector's patience, ClientRetry/8 +
// ViewChangeTimeout, not a multiple of the client's retry period. At the
// defaults (1 s, 500 ms), on the wall-clock benchmark's hub_failover
// workload (2000 ops/s open loop, the primary stopped a second in):
//
//	t = 0       the primary stops
//	t ≈ 125 ms  the first client resend (ClientRetry/8, then doubling up
//	            to ClientRetry) reaches the backups; each forwards the
//	            request to the dead primary, keeps it, and arms its
//	            progress timer
//	t ≈ 625 ms  ViewChangeTimeout expires and the view changes; entering
//	            the new view, the new primary batches the requests it
//	            holds and the backups forward theirs — which also starts
//	            their timers on the new primary
//	t ≈ 635 ms  the first replies of the new view; clients re-target on
//	            the view those replies carry
//
// Measured over 20 s runs: no reply for 600 ms (unavail_ms), latency p99
// 458 ms. With a flat 1 s resend ticker and the held requests forgotten at
// view entry the same crash cost 2.0 s to the millisecond (unavail_ms 2000,
// p99 1859 ms): 1 s to the first resend, 0.5 s to the view change, then
// every request sat in the new view until its client's next resend.
//
// The mid-failure cost is measured on the shared kernel (`benchrunner
// -exp failover`, the `failover` row, examples/failover): group 0's
// primary is killed mid-workload and probe writers in its range surface
// the outage end to end — stalled until the election, refused while the
// range is frozen, serving again once the attested flip lands. Electing
// costs both protocols the same — the first probe is served again after
// the same sweep + timeout + view change — but under the same timeout
// budget FlexiBFT's full recovery (every probe lane served again) and
// crash→flip window are measurably shorter: MinBFT's new primary
// re-proposes and drains the crash backlog one host-sequenced instance at
// a time, paying stream drains against every co-hosted group
// (TestFailoverRecoveryContrast).
//
// # Observability
//
// ShardOptions.Observe switches on the cluster-wide observability layer
// (internal/obs; zero dependencies, nil-safe throughout) and
// ShardedCluster.Observe hands out its hub. Four streams share one causal
// sequence:
//
// Request tracing. Every routed operation can carry a span tree, sampled
// deterministically (every k-th request at ObserveOptions.SampleRate, so
// runs reproduce). The span taxonomy is layer/name: a single-shard op is
// session/do → consensus/submit (health-gate outcomes are annotations on
// the parent); a cross-shard read is session/multiget with a
// session/read-round child per routing round; a cross-shard
// transaction is txn/2pc → txn/prepare → txn/decide (annotated with the
// attested counter value that bound the decision) → txn/drive; a live
// migration is placement/rebalance → placement/freeze → placement/install
// → placement/decide → placement/drive. A complete trace ends in a reply:
// every span Ended, the root annotated with the outcome
// (TraceRecord.Complete). Traces land in a fixed-size ring —
// Observer.Tracer().Snapshot(), .JSON(), .Dump().
//
// Metrics. A named registry (Observer.Metrics) of counters, gauges and
// log-linear histograms. The registered names live in internal/obs
// (registry.go): shard_op_latency_ns{group=G}, multiget_fanout,
// txn_phase_prepare_ns / txn_phase_decide_ns / txn_phase_drive_ns,
// rebalance_window_ns, health_transitions{group=G}, err_shard_degraded,
// err_unroutable, route_retries, exec_batch_requests. A histogram holds
// constant memory however many values it records and drops none; its
// quantiles are upper-bound estimates at most 12.5 % high.
//
// Attested-access audit. Every state-changing trusted-counter access
// (replica consensus counters, the transaction coordinator's arbiter)
// emits an AuditRecord; transaction and placement commit points emit an
// AuditDecision. The online checker enforces the paper's invariants as
// the stream arrives: per-counter monotonicity (a re-minted value is a
// rollback — the Section 6 attack raises a counter-regression alarm, see
// internal/byz), at most one attested decision per transaction id
// (a second is replay or equivocation), and exactly ONE attested access
// behind every decision digest. Alarms() empty is the healthy state; the
// audit never blocks the data path.
//
// Control-plane journal. View changes, health transitions, placement
// epoch flips, evacuations and fired alerts (Observer.Journal().Events()),
// stamped from the same sequence as the audit stream — an epoch flip is
// always ordered after the attested decision that authorized it, and an
// alert after the evidence that triggered it.
//
// # Operations
//
// The operator surface turns the four streams into something a deployment
// can scrape, page on, and debug from after the fact.
//
// Export. ShardedCluster.ObserveSnapshot renders the whole cluster as one
// versioned document (schema flexitrust-obs/v1): every metric, the
// retained traces, the audit stream, the journal, fired alerts and
// per-shard consensus stats — each stream with retained/dropped/truncated
// accounting, so a scrape never silently under-reports.
// ShardedCluster.ObserveHandler serves the admin endpoints for any HTTP
// listener: /metrics (Prometheus text exposition, names prefixed
// flexitrust_, per-group series labeled {group="G"}; ?format=json for the
// full document), /healthz (200 ok, or 503 when an audit alarm is
// outstanding or a shard is Stalled), /traces, /journal, /audit and
// /alerts. cmd/replica mounts the same surface on its -admin listener and
// drains gracefully on SIGINT/SIGTERM; `benchrunner -obs-dump` writes one
// export per shared-kernel simulation run.
//
// Alert rules. ObserveOptions.Rules arms an SLO engine (internal/obs
// Rules) evaluated on the cluster's watch loop — or from virtual time in
// the simulator, so alert tests are deterministic. The rules are named
// and stable: "audit_alarm" (any audit-checker alarm, promoted), "stall"
// (a health transition into Stalled — detected with zero client traffic),
// "slo_error_burn" (degraded/unroutable error rate over budget),
// "latency_p99" (windowed per-group p99 over threshold, off by default),
// "health_flapping" and "verify_pool_saturation". Every alert draws a
// number from the shared causal sequence and lands in the journal as an
// EventAlert, so "the alert at seq 19 fired after the transition at seq
// 18" is a statement the records themselves support. A healthy cluster
// fires nothing: the defaults are chosen so the clean path is silent.
//
// Flight recorder. RulesOptions.FlightDir arms a post-mortem recorder: a
// bounded ring of recent metrics snapshots plus, whenever an alert fires
// — or the process panics, drains, or the cluster stops dirty — one
// self-contained JSON bundle (schema flexitrust-flight/v1) with the full
// export and the metrics trend leading up to the incident. A stalled
// shard is diagnosable from the bundle alone after the process is gone.
// See examples/observability for the end-to-end drill.
//
// # Leased reads
//
// A linearizable single-key read normally costs a full consensus round.
// With ShardOptions.ReadLease on (opt-in), each group's primary serves
// them locally under a read lease — a committed operation, not a
// side-channel. The grant rides the group's own consensus: OpLeaseGrant
// bumps a replicated, monotone lease epoch in the store, and the executing
// primary binds the grant to the group's trusted counter with one AppendF
// access over H(namespace ‖ view ‖ epoch ‖ duration), whose attestation it
// returns with every leased reply.
//
// The lease is the primary's — one per group, each grant superseding the
// last — so the client side holds it once per group too: a ShardedCluster
// keeps one lease holder per group and every ShardSession reads through it
// (engine.LeaseHolder is the state machine; the simulator's client pool
// runs the same one on virtual time). The reader that finds no lease grants
// one through consensus and waits for it; readers arriving meanwhile read
// through consensus that once. From then on the lease is renewed ahead of
// expiry: the first read that finds less than half the lease's life left
// starts one renewal in the background and keeps reading under the old
// binding, so a busy group holds an unbroken lease for one grant — one
// attested access — per LeaseDuration/2 however many sessions read, and an
// idle cluster grants nothing. The client-side lifetime runs from the
// instant the grant was submitted (the primary's runs from when it executed
// it, which is later), less LeaseSafetyMargin.
//
// A read carries a fence — the group's commit watermark as this process
// has observed it — and the primary answers from its committed read view
// only at or above that fence. The fence can be ahead of the primary: a
// write is acknowledged by f+1 replicas, which need not include the
// primary's own execution of it. Such a read is not refused; the primary
// parks it (a bounded list, filled on the goroutine that delivered the read:
// on the hub, the reader's own) and answers it right after the execution
// that brings its read view to the fence, if the lease is live then. So a
// Get issued straight after the session's own Put comes back on the fast
// path with the new value. The goroutine runtime and the simulator both park:
// serving, parking and the grant scan are engine.Host's, written once for
// both substrates.
//
// The acceptance rule, exactly: a reply is used only if it was served (OK
// or NotFound), its (replica, view, epoch) equals the latest binding this
// process saw commit — judged when the reply arrives, so a renewal that
// lands mid-read does not reject it — that binding's client-side expiry
// has not passed, its grant attestation verifies (checked once per epoch,
// not per read), and its watermark is at or above the read's fence.
// Anything else falls back to a consensus read of the same key,
// transparently. A reply served under a newer epoch while this process's
// own renewal is still in flight waits for that renewal and is judged
// against what it installs.
//
// Revocation is deterministic, not clock-dependent: entering a view change
// revokes locally on every replica; a committed OpLeaseRevoke or a
// rebalance's range freeze deactivates the replicated lease state, which
// every replica's execute loop enforces; and installing a new placement
// epoch drops the client-side bindings. The expiry clock (LeaseDuration,
// shortened on both sides by LeaseSafetyMargin) only bounds how long a
// partitioned primary can keep answering clients that have seen nothing
// newer — any client whose watermark advanced past the stale primary's
// frozen state fails the fence check on its next read. A deposed primary
// that keeps serving anyway (the byzantine case, internal/byz) loses to
// the same client-side checks: the binding names a lease the cluster no
// longer holds.
//
// The speedup is measured, not asserted, on both substrates. Simulator:
// `benchrunner -exp reads` runs a 95/5 mix on the shared kernel with the
// lease on and off under identical seeds (the `reads` row; 3.56× at
// S=4 in BENCH_baseline.json). Wall clock: `go run ./bench -workload
// shard_read` (2 groups, 64 sessions, 95% Get) against `-workload
// shard_txn` without leases. With one lease cache per session — each
// session's grant invalidating the other 63 — the leased workload ran at
// 9.2k ops/s with a 0.50 hit ratio and ~7,300 grants/s, below the unleased
// one; with the shared, renewed-ahead holder and the fence wait it runs at
// ~165k ops/s (p50 7.5 ms → 5 µs), hit ratio 0.9997, ~38 grants/s.
// Leased reads cost the primary one fenced lookup instead of a protocol
// round, so read throughput scales with what the machines can serve
// rather than what consensus can order — while the 5% writes still pay the
// full protocol, unchanged. Watch lease_reads_total, lease_grants_total
// (steady state: one per group per half lease), lease_fallbacks_total and
// its per-cause split lease_fallbacks_total{reason=no_lease |
// grant_in_flight | behind_fence | refused | binding_mismatch | timeout},
// lease_revocations and the read_latency_lease_ns /
// read_latency_consensus_ns split in the metrics registry.
//
// # Hot-path performance
//
// For the four counter-sequenced protocols the hot path — propose, certify a
// slot's binding, vote or execute, the view change — is one implementation,
// internal/protocols/common.Core (core.go states the two sequencing modes and
// their safety arguments once) with the slot actions of actions.go.
//
// Two structural optimizations keep public-key cryptography off the
// consensus event loop:
//
// Aggregated quorum certificates. When a replica completes a vote quorum it
// assembles a crypto.QuorumCert — slot coordinates, batch (and, for the
// speculative protocols, history) digest, and a signer bitmap, with a
// canonical versioned wire encoding that also carries one signature per
// signer for individually-signed deployments. The certificate rides in
// view-change PreparedProofs, so a NewView validator performs ONE
// structural/batched check (Provider.VerifyQC) per slot instead of
// re-verifying 2f+1 loose votes; Zyzzyva-family replicas likewise check a
// client commit certificate's response set as one QC.
//
// Verification where the work is. The runtime checks attestations inline on
// the replica's event goroutine, each replica with keyed HMAC states of its
// own: a check costs a fraction of a microsecond, less than a handoff to
// another goroutine. The simulator's cost model prices a memo-miss check as
// an asynchronous batched verification: its completion is a scheduled event
// of its own, charged sim.CostModel.VerifyBatchN rather than the inline
// DSVerify cost, which re-checks protocol state before acting. A bounded memo of verified (statement, signer) pairs
// (crypto.VerifyMemo) makes re-proposed batches, resent votes and
// view-change replays one-time costs; only successes are cached. Request
// digests are computed once and memoized on the request
// (crypto.RequestDigest), so admission, batching, proposal and execution
// share one SHA-256 evaluation.
//
// Windowed amortized attestation. The remaining per-instance cost on the
// FlexiTrust hot path is the executing primary's trusted-counter access —
// one AppendF per batch. With engine.Config.AttestWindow > 1 (opt-in,
// Flexi-BFT and Flexi-ZZ only; the MinBFT/MinZZ USIG stream IS the
// sequencing mechanism and cannot be amortized) the primary assigns
// sequence numbers locally, folds each batch digest into a running chain
// (d_i = H(d_{i-1} ‖ batchDigest_i ‖ seq_i), anchored at a per-view
// genesis) and spends ONE AppendF on the chain tip per window of up to
// AttestWindow batches — flushing when the window fills, when BatchTimeout
// elapses on a partial window, and unconditionally before abandoning a
// view. The resulting crypto.WindowCert broadcasts as a WindowAttest;
// backups hold their votes (or speculative execution) for a slot until the
// covering certificate verifies. Safety reduces to AppendF monotonicity:
// the primary mints at most one attestation per (epoch, value), and a
// replica accepts a window only if it carries the next counter value,
// starts right above its covered prefix, and chains from the previously
// attested tip — so at each chain position exactly one window can ever be
// accepted, making every slot→digest binding unique per view. Reordering
// or substituting a batch inside a window changes the fold and fails the
// chain check (or the slot→digest match); equivocating across windows
// would need a second attestation for an already-spent counter value,
// which the trusted component cannot produce (internal/byz mounts both and
// shows every honest replica rejecting). View changes carry the covering
// certificate in PreparedProofs, and the new primary re-proposes the
// surviving prefix under one fresh window bound to its CounterInit. The
// amortization is measured, not asserted: `benchrunner -exp window` A/Bs
// window 1 against window 16 under identical seeds and reports attested
// accesses per committed request from the audit stream.
//
// The attested-access discipline is untouched: verification is read-only,
// so each decision still binds to exactly one trusted-counter access — or,
// windowed, each flushed window binds to exactly one access covering a
// gap-free, non-overlapping sequence range, the relaxed invariant the
// audit checker enforces per window record — and the checker stays
// alarm-free on honest runs. Watch sig_verifies_total,
// sig_verify_cache_hits, verify_pool_depth (the simulator's pending
// completions) and the qc_size histogram in the metrics registry; profile
// with `benchrunner -cpuprofile/-memprofile`.
//
// The recorded perf baseline (BENCH_baseline.json at the repository root,
// schema flexitrust-bench/v1) pins the headline experiments at fixed seeds
// and scales; regenerate with `benchrunner -bench-out`, check with
// `benchrunner -bench-validate`.
//
// The measurement side lives under internal/harness and is exposed through
// cmd/benchrunner and the repository-root benchmarks.
package flexitrust

import (
	"fmt"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols"
	"flexitrust/internal/runtime"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// Re-exported identifier types.
type (
	// ReplicaID identifies a replica (0..n-1).
	ReplicaID = types.ReplicaID
	// ClientID identifies a client of the replicated service.
	ClientID = types.ClientID
	// Digest is a SHA-256 digest.
	Digest = types.Digest
	// Client is the RSM client library.
	Client = runtime.Client
)

// Protocol selects a consensus protocol.
type Protocol int

// The protocols this library implements.
const (
	// FlexiBFT is the paper's two-phase FlexiTrust protocol (Section 8.2).
	FlexiBFT Protocol = iota
	// FlexiZZ is the paper's single-phase speculative FlexiTrust protocol
	// (Section 8.3).
	FlexiZZ
	// PBFT is Castro & Liskov's protocol, the 3f+1 baseline.
	PBFT
	// Zyzzyva is the speculative 3f+1 baseline.
	Zyzzyva
	// PBFTEA is the trusted-log trust-bft baseline (2f+1).
	PBFTEA
	// MinBFT is the two-phase trusted-counter trust-bft protocol (2f+1).
	MinBFT
	// MinZZ is the single-phase speculative trust-bft protocol (2f+1).
	MinZZ
)

// rowKeys names each Protocol's row in the registry (internal/protocols),
// which every fact about the protocol is read from.
var rowKeys = [...]string{FlexiBFT: "flexibft", FlexiZZ: "flexizz", PBFT: "pbft",
	Zyzzyva: "zyzzyva", PBFTEA: "pbftea", MinBFT: "minbft", MinZZ: "minzz"}

// row is p's registry row; a value outside the constants above is an error.
func (p Protocol) row() (protocols.Variant, error) {
	if p < 0 || int(p) >= len(rowKeys) {
		return protocols.Variant{}, fmt.Errorf("flexitrust: unknown protocol %d", int(p))
	}
	return protocols.Lookup(rowKeys[p])
}

// meta is p's row's Meta, or for an unknown Protocol a stand-in named
// "Protocol?" that needs and accepts no replicas.
func (p Protocol) meta() engine.Meta {
	if v, err := p.row(); err == nil {
		return v.Meta
	}
	return engine.Meta{Name: "Protocol?",
		Replicas: func(int) int { return 0 }, ClientReplies: func(int, int) int { return 0 }}
}

// String implements fmt.Stringer.
func (p Protocol) String() string { return p.meta().Name }

// N returns the replication factor this protocol needs for fault threshold
// f: 3f+1 for BFT and FlexiTrust protocols, 2f+1 for trust-bft.
func (p Protocol) N(f int) int { return p.meta().Replicas(f) }

// Replies returns the client's matching-response quorum on the fast path.
// One of all n (Zyzzyva, MinZZ) falls back after 10 ms to an n−f commit
// certificate, acknowledged by n−f replicas.
func (p Protocol) Replies(n, f int) int { return p.meta().ClientReplies(n, f) }

// ClusterOptions configures an in-process cluster (NewCluster).
type ClusterOptions struct {
	// Protocol picks the consensus protocol (default FlexiBFT).
	Protocol Protocol
	// F is the fault threshold (default 1); the cluster runs Protocol.N(F)
	// replicas.
	F int
	// Clients lists the client identities to provision keys for; a client
	// with any other id fails its first Submit.
	Clients []ClientID
	// BatchSize is requests per consensus batch (default 100).
	BatchSize int
	// BatchTimeout bounds the oldest pending request's wait: a partial batch
	// goes out one BatchTimeout after its first request (default 2ms).
	BatchTimeout time.Duration
	// Records sizes the key-value store (default 600k).
	Records int
	// ViewChangeTimeout is how long a replica waits on a stalled request
	// before suspecting its primary (default 500ms).
	ViewChangeTimeout time.Duration
	// ClientRetry is the ceiling of the client library's resend backoff
	// (default 1s): an unresolved request is first re-broadcast after an
	// eighth of it, then at doubling intervals up to it. The first resend
	// starts the backups' failure detector, so a primary crash costs about
	// ClientRetry/8 + ViewChangeTimeout. A crashed backup costs an all-n
	// fast path only the slow path of Protocol.Replies, not a resend.
	ClientRetry time.Duration
	// EmulateTrustedLatency sleeps the trusted component's hardware access
	// cost (hardware-faithful demos; off by default).
	EmulateTrustedLatency bool
	// Verbose enables replica logging.
	Verbose bool
}

// Cluster is a running in-process replicated service.
type Cluster struct {
	inner *runtime.Cluster
}

// NewCluster boots an in-process cluster of real replica nodes (goroutines,
// Ed25519 signatures, HMAC-attested trusted components) connected by an
// in-memory transport.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	group, err := opts.group()
	if err != nil {
		return nil, err
	}
	inner, err := runtime.NewCluster(group)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// group is one consensus group as opts configure it, NewCluster's and every
// shard of NewShardedCluster's: replica count, reply quorum, concurrency mode
// and trusted-log provisioning come from the protocol's registry row.
func (opts ClusterOptions) group() (runtime.ClusterConfig, error) {
	v, err := opts.Protocol.row()
	if err != nil {
		return runtime.ClusterConfig{}, err
	}
	f := max(opts.F, 1)
	n := v.Meta.Replicas(f)
	ecfg := engine.DefaultConfig(n, f)
	ecfg.Parallel = v.Parallel()
	if opts.BatchSize > 0 {
		ecfg.BatchSize = opts.BatchSize
	}
	if opts.BatchTimeout > 0 {
		ecfg.BatchTimeout = opts.BatchTimeout
	}
	if opts.ViewChangeTimeout > 0 {
		ecfg.ViewChangeTimeout = opts.ViewChangeTimeout
	}
	return runtime.ClusterConfig{
		N: n, F: f,
		Engine:           ecfg,
		NewProtocol:      v.New,
		Replies:          v.Replies(n, f).Fast,
		Clients:          opts.Clients,
		ClientRetry:      opts.ClientRetry,
		TrustedProfile:   trusted.ProfileSGXEnclave,
		KeepLog:          v.KeepLog(),
		EmulateTCLatency: opts.EmulateTrustedLatency,
		Records:          opts.Records,
		Verbose:          opts.Verbose,
	}, nil
}

// NewClient attaches a client library for one of the provisioned ids.
func (c *Cluster) NewClient(id ClientID) *Client { return c.inner.NewClient(id) }

// Stop halts every replica.
func (c *Cluster) Stop() { c.inner.Stop() }

// StateDigest returns replica r's state-machine digest (read on the
// replica's event goroutine, so it is safe while the cluster runs).
func (c *Cluster) StateDigest(r ReplicaID) Digest {
	d, _ := c.inner.Nodes[r].DigestSnapshot()
	return d
}

// CrashReplica fail-stops one replica (failure demos; the protocols keep
// committing as long as at most F replicas are down).
func (c *Cluster) CrashReplica(r ReplicaID) { c.inner.Nodes[r].Stop() }

// Key-value operation helpers: the replicated state machine is a YCSB-style
// key-value store; these build its operation payloads.

// Read builds a read of key.
func Read(key uint64) []byte {
	return (&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()
}

// Update builds an overwrite of key with value.
func Update(key uint64, value []byte) []byte {
	return (&kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: value}).Encode()
}

// Insert builds an insert of a fresh key.
func Insert(key uint64, value []byte) []byte {
	return (&kvstore.Op{Code: kvstore.OpInsert, Key: key, Value: value}).Encode()
}

// Scan builds a short range scan of count keys starting at key.
func Scan(key uint64, count uint16) []byte {
	return (&kvstore.Op{Code: kvstore.OpScan, Key: key, Count: count}).Encode()
}
