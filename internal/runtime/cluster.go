package runtime

import (
	"fmt"
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// ClusterConfig assembles an in-process cluster over a transport hub.
type ClusterConfig struct {
	N, F        int
	Engine      engine.Config
	NewProtocol func(engine.Config) engine.Protocol
	// Replies is the client's matching-response quorum.
	Replies int
	// Clients lists client ids to provision keys for; a client with any
	// other id fails its first Submit.
	Clients []types.ClientID
	// ClientRetry is the ceiling of the client library's resend backoff
	// (ClientConfig.RetryEvery, default 1s): the first re-broadcast of an
	// unresolved request goes out after an eighth of it. That resend is what
	// makes backups suspect a dead primary, so primary-failure recovery
	// takes about ClientRetry/8 + the engine's ViewChangeTimeout.
	ClientRetry time.Duration
	// TrustedProfile / KeepLog configure the trusted components.
	TrustedProfile   trusted.Profile
	KeepLog          bool
	EmulateTCLatency bool
	Records          int
	Seed             int64
	Verbose          bool
}

// Cluster is an in-process deployment: n replica nodes plus client
// libraries, all real goroutines over the hub transport with real Ed25519
// signatures — the quickstart and integration-test substrate.
type Cluster struct {
	Hub *transport.Hub
	// Nodes is the replica set. RestartReplica swaps entries while health
	// probes read them concurrently, so concurrent readers must go through
	// Node(r)/Probe/ReplicaStatus (which take nodesMu) rather than
	// indexing Nodes directly; direct indexing is fine for tests and
	// single-threaded setup/teardown.
	Nodes   []*Node
	nodesMu sync.RWMutex
	Keyring *crypto.Keyring
	Auth    *trusted.HMACAuthority
	cfg     ClusterConfig
}

// NewCluster builds and starts the cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N == 0 {
		return nil, fmt.Errorf("runtime: N must be set")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	ring, err := crypto.NewKeyring(cfg.Seed, cfg.N, cfg.Clients)
	if err != nil {
		return nil, fmt.Errorf("runtime: keyring: %w", err)
	}
	c := &Cluster{
		Hub:     transport.NewHub(),
		Keyring: ring,
		Auth:    trusted.NewHMACAuthority(cfg.Seed+1, cfg.N),
		cfg:     cfg,
	}
	for i := 0; i < cfg.N; i++ {
		tp := c.Hub.Attach(transport.ReplicaAddr(int32(i)), 0)
		node := NewNode(NodeConfig{
			ID:               types.ReplicaID(i),
			Engine:           cfg.Engine,
			NewProtocol:      cfg.NewProtocol,
			Transport:        tp,
			Keyring:          ring,
			Authority:        c.Auth,
			TrustedProfile:   cfg.TrustedProfile,
			KeepLog:          cfg.KeepLog,
			EmulateTCLatency: cfg.EmulateTCLatency,
			Records:          cfg.Records,
			Verbose:          cfg.Verbose,
		})
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// N returns the cluster's replication factor; F its fault threshold.
func (c *Cluster) N() int { return c.cfg.N }

// F returns the cluster's fault threshold.
func (c *Cluster) F() int { return c.cfg.F }

// Node returns replica r's current node, safely against a concurrent
// RestartReplica swap.
func (c *Cluster) Node(r types.ReplicaID) *Node {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	return c.Nodes[r]
}

// StopReplica fail-stops replica r (idempotent). The failure-injection
// counterpart of RestartReplica; the remaining replicas view-change around
// a stopped primary as long as at most F replicas are down.
func (c *Cluster) StopReplica(r types.ReplicaID) { c.Node(r).Stop() }

// RestartReplica replaces a stopped replica with a fresh node under the
// same identity, keys and transport address. The restarted replica rejoins
// the protocol from genesis state: it participates in view changes and
// forwards requests immediately, but its state machine restarts empty, so
// its replies must not be counted toward matching-response quorums until it
// observes a stable checkpoint — with at most F replicas restarted at once,
// quorums never need it. Restarting a running replica is a no-op.
func (c *Cluster) RestartReplica(r types.ReplicaID) {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	old := c.Nodes[r]
	if !old.Stopped() {
		return
	}
	old.cfg.Transport.Close()
	tp := c.Hub.Attach(transport.ReplicaAddr(int32(r)), 0)
	cfg := old.cfg
	cfg.Transport = tp
	c.Nodes[r] = NewNode(cfg)
}

// ReplicaStatus probes replica r's consensus position; ok is false when the
// replica is down.
func (c *Cluster) ReplicaStatus(r types.ReplicaID) (engine.Status, bool) {
	return c.Node(r).Status()
}

// ReplicaProbe is one replica's entry in a cluster progress probe.
type ReplicaProbe struct {
	ID types.ReplicaID
	// Up reports whether the replica answered; Status is meaningful only
	// when Up.
	Up     bool
	Status engine.Status
}

// Probe snapshots every replica's consensus position — the cluster-level
// progress probe per-shard health monitoring samples.
func (c *Cluster) Probe() []ReplicaProbe {
	c.nodesMu.RLock()
	nodes := append([]*Node(nil), c.Nodes...)
	c.nodesMu.RUnlock()
	out := make([]ReplicaProbe, len(nodes))
	for i, n := range nodes {
		st, up := n.Status()
		out[i] = ReplicaProbe{ID: types.ReplicaID(i), Up: up, Status: st}
	}
	return out
}

// NewClient attaches a client library for one of the provisioned ids.
func (c *Cluster) NewClient(id types.ClientID) *Client {
	tp := c.Hub.Attach(transport.ClientAddr(uint64(id)), 0)
	return NewClient(ClientConfig{
		ID:         id,
		N:          c.cfg.N,
		F:          c.cfg.F,
		Transport:  tp,
		Keyring:    c.Keyring,
		Replies:    c.cfg.Replies,
		RetryEvery: c.cfg.ClientRetry,
	})
}

// Stop halts every node.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Stop()
	}
}
