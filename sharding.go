package flexitrust

import (
	"context"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/shard"
)

// ShardOptions configures a sharded deployment (NewShardedCluster): S
// independent consensus groups — each a full protocol instance with its own
// replicas and a private trusted-counter namespace — behind a deterministic
// keyspace router.
type ShardOptions struct {
	// Shards is the number of consensus groups (default 4).
	Shards int
	// Protocol picks the consensus protocol every group runs (default
	// FlexiBFT). FlexiTrust protocols are the intended choice: their single
	// primary-side trusted-counter access per consensus is what lets groups
	// scale; MinBFT/MinZZ groups each stay bottlenecked by their sequential
	// counter.
	Protocol Protocol
	// F is the per-group fault threshold (default 1); each group runs
	// Protocol.N(F) replicas.
	F int
	// Clients lists the client identities to provision in every group.
	Clients []ClientID
	// BatchSize / BatchTimeout tune per-group batching (defaults 100 / 2ms).
	BatchSize    int
	BatchTimeout time.Duration
	// Records sizes each group's key-value store (default 600k).
	Records int
	// ViewChangeTimeout is how long a replica waits on a stalled request
	// before suspecting its primary (default 500ms). Failover latency is
	// bounded below by it; deployments that want snappy recovery tune it
	// here instead of reaching into internal/engine.
	ViewChangeTimeout time.Duration
	// ClientRetry is the ceiling of the client library's resend backoff
	// (default 1s): an unresolved request is first re-broadcast after an
	// eighth of it, then at doubling intervals up to it. That first resend
	// is what makes backups suspect a dead primary, so recovery takes about
	// ClientRetry/8 + ViewChangeTimeout.
	ClientRetry time.Duration
	// StallTimeout is the health monitor's failover threshold: a group
	// degraded (or not progressing under demand) this long classifies
	// Stalled — sessions fail fast against it and Failover may evacuate
	// its ranges. Default: 4× ViewChangeTimeout.
	StallTimeout time.Duration
	// ReadLease enables the leader read-lease fast path: each group grants
	// its primary a consensus-committed, counter-attested lease, and
	// sessions serve fenced single-key Gets (and one-shard MultiGets) from
	// that primary without a consensus round — falling back transparently
	// whenever the lease binding fails (see the package docs' "Leased
	// reads" section). Off by default.
	ReadLease bool
	// LeaseDuration bounds how long one committed grant authorizes local
	// serving (default 100ms). A cluster with readers renews its lease ahead
	// of expiry, once per half duration per group.
	LeaseDuration time.Duration
	// Observe enables cluster-wide observability: request tracing, the
	// metrics registry, the attested-access audit stream and the
	// control-plane event journal (see ShardedCluster.Observe).
	Observe ObserveOptions
	// Verbose enables replica logging.
	Verbose bool
}

// ShardedCluster is a running sharded deployment. Operations are routed to
// the shard owning their key under the cluster's epoch-versioned placement
// map (single-shard fast path); cross-shard reads go through
// ShardSession.MultiGet, which is fenced by per-shard commit watermarks
// (read-committed) and reports keys blocked by a pending transaction
// intent explicitly. Cross-shard writes are atomic through
// ShardSession.MultiPut / ShardSession.Txn: two-phase commit over the
// groups with the cluster's attested counter as the commit-point arbiter
// (see the package docs' "Cross-shard transactions" section). Hash ranges
// migrate live between groups through ShardSession.Rebalance (see
// "Elastic placement & rebalancing").
type ShardedCluster struct {
	inner *shard.Cluster
}

// ShardSession is a client identity's routing handle into every shard. It
// routes by its cached placement epoch and transparently retries through
// refreshed epochs when a range moves under it.
type ShardSession = shard.Session

// ShardVector is the per-shard version vector a MultiGet was read at.
type ShardVector = shard.ShardVector

// KeyRange is a contiguous interval of the 64-bit key-HASH space (both
// ends inclusive) — the unit of placement and rebalancing. Ranges are over
// kvstore.KeyHash values, not raw keys.
type KeyRange = shard.Range

// PlacementMap is the epoch-versioned assignment of hash ranges to
// consensus groups (immutable; rebalancing installs successors).
type PlacementMap = shard.PlacementMap

// RebalanceResult reports one live range handoff's outcome
// (ShardSession.Rebalance).
type RebalanceResult = shard.RebalanceResult

// GroupHealth is one shard's classified health sample (ShardSession.Health
// / ShardedCluster.Health): current view, primary, replicas up, commit
// watermark and the Healthy / ViewChanging / Stalled classification.
type GroupHealth = shard.GroupHealth

// GroupState classifies one shard's health.
type GroupState = shard.GroupState

// The health states.
const (
	// GroupHealthy: the shard is committing normally.
	GroupHealthy = shard.GroupHealthy
	// GroupViewChanging: the shard is electing a new primary; sessions
	// back off briefly and ride through.
	GroupViewChanging = shard.GroupViewChanging
	// GroupStalled: the shard is degraded past the stall threshold;
	// sessions fail fast with ErrShardDegraded and Failover may evacuate
	// its ranges.
	GroupStalled = shard.GroupStalled
)

// FailoverResult reports one failover evacuation (ShardedCluster.Failover):
// the evacuated group and the attested handoff of each of its ranges.
type FailoverResult = shard.FailoverResult

// ErrShardDegraded marks an operation refused fast because its target
// shard is classified Stalled (errors.Is-comparable).
var ErrShardDegraded = shard.ErrShardDegraded

// ErrUnroutable marks an operation whose placement never converged after
// exhausting the session's routing retries (errors.Is-comparable).
var ErrUnroutable = shard.ErrUnroutable

// TxnWrite is one write of a cross-shard transaction (ShardSession.Txn):
// Code is OpUpdate-style (key must exist) when built with UpdateWrite, or
// blind-upsert when built with InsertWrite.
type TxnWrite = kvstore.TxnWrite

// ReadResult is one key's outcome in a MultiGet: the committed value plus
// an explicit pending-transaction-intent signal (BlockedBy).
type ReadResult = kvstore.ReadResult

// UpdateWrite builds a transactional write requiring the key to exist.
func UpdateWrite(key uint64, value []byte) TxnWrite {
	return TxnWrite{Key: key, Code: kvstore.OpUpdate, Value: value}
}

// InsertWrite builds a transactional blind-upsert write.
func InsertWrite(key uint64, value []byte) TxnWrite {
	return TxnWrite{Key: key, Code: kvstore.OpInsert, Value: value}
}

// NewShardedCluster boots S in-process consensus groups behind the keyspace
// router. Each group is a real cluster (goroutine replicas, Ed25519
// signatures, HMAC-attested trusted components) whose trusted-counter
// identifiers live in a namespace private to the shard.
func NewShardedCluster(opts ShardOptions) (*ShardedCluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	group, err := ClusterOptions{
		Protocol: opts.Protocol, F: opts.F, Clients: opts.Clients,
		BatchSize: opts.BatchSize, BatchTimeout: opts.BatchTimeout, Records: opts.Records,
		ViewChangeTimeout: opts.ViewChangeTimeout, ClientRetry: opts.ClientRetry, Verbose: opts.Verbose,
	}.group()
	if err != nil {
		return nil, err
	}
	group.Engine.ReadLease = opts.ReadLease
	if opts.LeaseDuration > 0 {
		group.Engine.LeaseDuration = opts.LeaseDuration
	}
	var observer *obs.Observer
	if opts.Observe.Enabled {
		observer = obs.New(obs.Config{
			SampleRate:  opts.Observe.SampleRate,
			TraceBuffer: opts.Observe.TraceBuffer,
		})
	}
	scfg := shard.Config{
		Shards: opts.Shards,
		Group:  group,
		Health: shard.HealthConfig{StallAfter: opts.StallTimeout},
		Obs:    observer,
	}
	if opts.Observe.Enabled && opts.Observe.Rules.Enabled {
		scfg.RulesEnabled = true
		scfg.RulesEvery = opts.Observe.Rules.EvalEvery
		scfg.FlightDir = opts.Observe.Rules.FlightDir
		scfg.Rules = obs.RulesConfig{
			ErrorRatePerSec: opts.Observe.Rules.ErrorRatePerSec,
			LatencyP99:      opts.Observe.Rules.LatencyP99SLO,
			OnAlert:         opts.Observe.Rules.OnAlert,
		}
	}
	inner, err := shard.NewCluster(scfg)
	if err != nil {
		return nil, err
	}
	return &ShardedCluster{inner: inner}, nil
}

// Session attaches a routing client for one of the provisioned ids.
func (c *ShardedCluster) Session(id ClientID) *ShardSession { return c.inner.Session(id) }

// Shards returns the number of consensus groups.
func (c *ShardedCluster) Shards() int { return c.inner.Shards() }

// ShardFor maps a key to its owning group index under the current
// placement epoch.
func (c *ShardedCluster) ShardFor(key uint64) int { return c.inner.ShardFor(key) }

// HashKey returns the canonical 64-bit hash of a store key — the value
// KeyRange placement intervals are expressed over (kvstore.KeyHash).
func HashKey(key uint64) uint64 { return kvstore.KeyHash(key) }

// TxnLogLen returns the number of decisions the cluster's attestation log
// currently retains (shrinks under ShardSession.CompactTxnHistory).
func (c *ShardedCluster) TxnLogLen() int { return c.inner.TxnLog().Len() }

// Placement returns the installed placement map.
func (c *ShardedCluster) Placement() *PlacementMap { return c.inner.Placement() }

// PlacementEpoch returns the installed placement's epoch (starts at 1;
// every committed rebalance advances it).
func (c *ShardedCluster) PlacementEpoch() uint64 { return c.inner.Placement().Epoch() }

// Watermarks snapshots every shard's committed-sequence watermark.
func (c *ShardedCluster) Watermarks() ShardVector { return c.inner.Watermarks() }

// Stats reports every shard's counters, latency, view and view-change count,
// and folds them into cluster-level numbers: commits and view changes sum,
// the mean latency weights each shard's mean by its commits, and the p99 is
// the worst shard's.
func (c *ShardedCluster) Stats() shard.Stats { return c.inner.Stats() }

// Health samples (rate-limited) every shard's health classification.
func (c *ShardedCluster) Health() []GroupHealth { return c.inner.Health() }

// StopReplica fail-stops replica r of shard s (failure injection; the
// group's remaining replicas elect a new primary when the stopped one led).
func (c *ShardedCluster) StopReplica(s int, r ReplicaID) {
	c.inner.Group(s).Runtime().StopReplica(r)
}

// RestartReplica restarts a stopped replica of shard s under its original
// identity and keys (see runtime.Cluster.RestartReplica for the state
// caveats).
func (c *ShardedCluster) RestartReplica(s int, r ReplicaID) {
	c.inner.Group(s).Runtime().RestartReplica(r)
}

// Failover evacuates every range shard `group` owns to the currently
// healthy shards, through sess's identity: each range moves as one attested
// placement change (exactly one attested counter access, first-wins per
// epoch — two concurrent failovers can never both re-point a range). The
// evacuation's own traffic drives a wedged group's view change, so a group
// that is merely primary-less recovers as its data leaves.
func (c *ShardedCluster) Failover(ctx context.Context, sess *ShardSession, group int) (*FailoverResult, error) {
	return shard.NewFailoverOrchestrator(sess).EvacuateGroup(ctx, group, shard.FailoverOptions{})
}

// Stop halts every group.
func (c *ShardedCluster) Stop() { c.inner.Stop() }

// DoOp routes an already-built kv operation (Read/Update/Insert/Scan
// helpers) through a session. It decodes the payload to find the routing
// key; prefer the typed ShardSession methods for new code.
func DoOp(ctx context.Context, s *ShardSession, op []byte) ([]byte, error) {
	decoded, err := kvstore.DecodeOp(op)
	if err != nil {
		return nil, err
	}
	return s.Do(ctx, decoded)
}

// ShardStateDigest returns replica r of group s's state-machine digest
// (read on the replica's event goroutine, so it is safe while running).
func (c *ShardedCluster) ShardStateDigest(s int, r ReplicaID) Digest {
	d, _ := c.inner.Group(s).Runtime().Node(r).DigestSnapshot()
	return d
}
