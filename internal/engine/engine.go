// Package engine defines the environment interface every consensus protocol
// runs against, plus the machinery all protocols share: batching, in-order
// execution, quorum tracking, checkpointing and client response caching.
//
// Protocols are written once as deterministic event handlers (Protocol) and
// run unmodified on two substrates: the discrete-event simulator
// (internal/sim), which models CPU and trusted-hardware costs in virtual
// time, and the real goroutine runtime (internal/runtime) over in-memory or
// TCP transports. What a replica does around its protocol is written once
// too: Host owns the store, the read lease, the trusted view and the
// verified-statement memo, and each substrate embeds one and supplies a
// Substrate (clock, async verification completion, lease-reply send, trusted
// access hook and the Charge meter).
package engine

import (
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// Env is everything a replica's protocol logic may do to the outside world.
// Handlers are invoked single-threaded per replica; Env methods must only be
// called from within a handler. On both substrates Host implements ID,
// Trusted, the attestation checks, Execute and the state methods; the
// substrate implements the sends, timers, Now, Crypto, Defer and Logf.
type Env interface {
	// ID returns this replica's identity.
	ID() types.ReplicaID
	// Send transmits m to one replica. Sending to self is delivered like
	// any other message.
	Send(to types.ReplicaID, m types.Message)
	// Broadcast transmits m to every replica except self.
	Broadcast(m types.Message)
	// Respond delivers an execution response toward the clients whose
	// requests it covers.
	Respond(r *types.Response)
	// SendClient sends an arbitrary message to one client.
	SendClient(c types.ClientID, m types.Message)

	// SetTimer (re)arms timer id to fire after d; CancelTimer disarms it.
	SetTimer(id types.TimerID, d time.Duration)
	CancelTimer(id types.TimerID)
	// Now is the elapsed time since the run started (virtual in the
	// simulator, wall-clock in the runtime).
	Now() time.Duration

	// Trusted returns this replica's trusted component. Every call on the
	// returned component is charged its access latency by the simulator.
	Trusted() trusted.Component
	// VerifyAttestation checks an attestation produced by any replica's
	// trusted component (and charges one signature verification).
	VerifyAttestation(a *types.Attestation) bool
	// VerifyAttestationAsync checks an attestation and delivers done(ok) in
	// the replica's event context. The runtime checks inline and has run
	// done before it returns: an HMAC check costs less than a handoff. The
	// simulator's cost model prices a memo miss as a batched verification,
	// so there done runs as an event of its own, after other events may
	// have been processed; done must re-check any protocol state it depends
	// on. Verified attestations are memoized, so resends and catch-up
	// replays complete immediately.
	VerifyAttestationAsync(a *types.Attestation, done func(ok bool))
	// Crypto returns the signing/verification provider for this replica.
	Crypto() crypto.Provider

	// Execute applies a committed batch to the state machine, charging
	// per-transaction execution cost, and returns per-request results.
	Execute(seq types.SeqNum, b *types.Batch) []types.Result
	// StateDigest returns the state machine's history digest.
	StateDigest() types.Digest
	// SnapshotState and RestoreState support speculative-execution rollback.
	SnapshotState() any
	RestoreState(snap any)

	// Defer schedules fn as a separate event on this replica: it runs
	// after the current handler, potentially on another worker thread.
	// Speculative primaries use it to decouple their own execution/reply
	// work from proposal emission, as pipelined implementations do.
	Defer(fn func())

	// Logf emits a debug log line attributed to this replica.
	Logf(format string, args ...any)
}

// Protocol is a consensus protocol's event interface. Implementations must
// be deterministic: all nondeterminism comes from the environment.
type Protocol interface {
	// Init is called once before any event is delivered.
	Init(env Env)
	// OnRequest delivers a client request that arrived at this replica.
	OnRequest(req *types.ClientRequest)
	// OnMessage delivers a protocol message. The transport authenticates
	// `from`; handlers may trust it (byzantine peers can lie in message
	// *bodies* but cannot impersonate other replicas).
	OnMessage(from types.ReplicaID, m types.Message)
	// OnTimer delivers an expired timer.
	OnTimer(id types.TimerID)
}

// Status is a replica's consensus position, exposed for health monitoring:
// which view it is in (and therefore which replica it believes is primary),
// whether a view change is in progress, and how far execution has advanced.
// Protocols built on protocols/common report it through StatusReporter; the
// substrates (runtime.Node, the simulator) read it on the replica's event
// context so it never races with handlers.
type Status struct {
	// View is the replica's current view; Primary is the view's leader.
	View    types.View
	Primary types.ReplicaID
	// InViewChange reports that the replica has abandoned View's primary
	// and is voting for a successor view.
	InViewChange bool
	// LastExecuted is the highest consensus sequence number applied to the
	// state machine — the replica's commit progress.
	LastExecuted types.SeqNum
	// ViewChanges counts the views this replica has installed (0 while the
	// genesis view holds) — churn here is the degradation signal per-shard
	// health monitoring aggregates.
	ViewChanges uint64
}

// StatusReporter is implemented by protocols that expose their consensus
// position (every protocol embedding protocols/common.Base does). Status
// must only be called from within the replica's event context, like any
// other protocol entry point.
type StatusReporter interface {
	Status() Status
}

// Config carries the cluster- and protocol-level parameters shared by all
// protocols.
type Config struct {
	N int // number of replicas
	F int // fault threshold

	// BatchSize is the number of client requests per consensus instance.
	// BatchTimeout bounds how long the oldest pending request waits for its
	// batch to fill: the primary cuts a partial batch one BatchTimeout after
	// that request arrived, or at the first moment after it the propose gate
	// opens (see Batcher).
	BatchSize    int
	BatchTimeout time.Duration

	// Parallel permits multiple in-flight consensus instances (bounded by
	// Window). trust-bft protocols are inherently sequential (Section 7);
	// the o-variants of FlexiTrust disable parallelism for the ablation. A
	// sequential primary cuts what is pending each time its one instance
	// completes (an eager Batcher).
	Parallel bool
	// Window caps in-flight instances when Parallel.
	Window int

	// CheckpointEvery is the checkpoint interval in sequence numbers.
	CheckpointEvery uint64

	// ViewChangeTimeout is how long a replica waits on a stalled request
	// before suspecting the primary.
	ViewChangeTimeout time.Duration

	// CaptureSnapshots retains a state snapshot at each stable checkpoint
	// so speculative protocols can roll back during view changes. The
	// benchmark harness disables it (no view changes occur there) to avoid
	// paying snapshot copies in host time.
	CaptureSnapshots bool

	// TrustedNamespace, when nonzero, confines this instance's trusted
	// counter/log identifiers to a private namespace of its (possibly
	// shared) trusted component, and makes attestation verification expect
	// that namespace. Sharded deployments (internal/shard) give every
	// consensus group a distinct namespace so co-hosted protocol instances
	// can never alias one another's counters; see trusted.Namespaced. All
	// replicas of one group must use the same namespace.
	TrustedNamespace uint16

	// AttestWindow enables windowed amortized attestation on FlexiTrust
	// protocols (AppendF-based primaries): the primary chains batch
	// digests and spends one trusted-counter access per window of up to
	// AttestWindow batches, publishing a crypto.WindowCert that binds the
	// counter value to the ordered digest range. Values ≤ 1 preserve the
	// per-batch attestation behavior exactly. Host-sequenced protocols
	// (MinBFT-class Append streams) ignore it: their counter accesses are
	// the sequence numbers themselves and cannot be amortized.
	AttestWindow int

	// Observer, when non-nil, enables the cluster-wide observability
	// layer for this instance: the hosting environment instruments the
	// replica's raw trusted component with it (audit records for every
	// attested access) and records execution metrics. Nil disables
	// observation at zero cost; see internal/obs.
	Observer *obs.Observer

	// ReadLease enables the leader read-lease fast path: a lease granted
	// through consensus (kvstore.OpLeaseGrant, anchored to the group's
	// trusted counter) lets the primary answer single-key reads locally
	// from a watermark-consistent read view, skipping consensus entirely.
	// Only non-speculative protocols may enable it — speculative execution
	// mutates the store before commit, so a local read could observe
	// uncommitted state. See LeaseTracker and the "Leased reads" section of
	// the repository doc.
	ReadLease bool
	// LeaseDuration is how long one committed grant authorizes local
	// serving, measured from the grant's execution on the serving replica's
	// own clock.
	LeaseDuration time.Duration
	// LeaseSafetyMargin is subtracted from the serving deadline, so bounded
	// clock rate error between the grant's executor and the rest of the
	// group cannot stretch serving past what everyone else assumes expired.
	LeaseSafetyMargin time.Duration
	// Lease is this node's lease tracker, injected by the replica's Host
	// when ReadLease is on (one tracker per replica — never shared). The
	// shared protocol base revokes it on view transitions; the Host
	// grants/serves through it.
	Lease *LeaseTracker
}

// DefaultConfig returns the paper's standard setup for a given f: batch size
// 100, parallel window 128, checkpoint every 100 instances.
func DefaultConfig(n, f int) Config {
	return Config{
		N:                 n,
		F:                 f,
		BatchSize:         100,
		BatchTimeout:      2 * time.Millisecond,
		Parallel:          true,
		Window:            128,
		CheckpointEvery:   100,
		ViewChangeTimeout: 500 * time.Millisecond,
		CaptureSnapshots:  true,
		LeaseDuration:     100 * time.Millisecond,
		LeaseSafetyMargin: 2 * time.Millisecond,
	}
}

// Quorum helpers.

// VoteQuorum2f1 returns 2f+1, the vote quorum of 3f+1 protocols.
func (c Config) VoteQuorum2f1() int { return 2*c.F + 1 }

// VoteQuorumF1 returns f+1, the vote quorum of 2f+1 trust-bft protocols.
func (c Config) VoteQuorumF1() int { return c.F + 1 }

// Meta describes a protocol for the Figure 1 comparison matrix and the
// harness.
type Meta struct {
	Name string
	// Replicas is the replication factor as a function of f.
	Replicas func(f int) int
	// Phases is the number of consensus phases on the failure-free path.
	Phases int
	// TrustedAbstraction is "none", "counter", "log", or "counter+log".
	TrustedAbstraction string
	// BFTLiveness reports whether the protocol offers the same client
	// (RSM) liveness as 3f+1 BFT protocols — Figure 1 column 2.
	BFTLiveness bool
	// OutOfOrder reports support for parallel consensus invocations —
	// Figure 1 column 3.
	OutOfOrder bool
	// TrustedMemory is "none", "low", "order of log-size", or "high" —
	// Figure 1 column 4.
	TrustedMemory string
	// PrimaryOnlyTC reports whether only the primary needs an active
	// trusted component — Figure 1 column 5.
	PrimaryOnlyTC bool
	// ClientReplies is the fast-path client reply quorum as a function
	// of n and f.
	ClientReplies func(n, f int) int
	// Speculative marks single-phase speculative-execution protocols.
	Speculative bool
}
