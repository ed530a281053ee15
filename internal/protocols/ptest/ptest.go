// Package ptest provides a deterministic single-replica test environment
// for driving protocol handlers directly: it records outbound messages,
// exposes manual timer control, and wires a real trusted component and
// key-value store. Protocol unit tests use it to assert handler-level
// behavior (vote rules, buffering, view-change payloads) without the
// full simulator.
package ptest

import (
	"fmt"
	"testing"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// Sent is one recorded outbound message.
type Sent struct {
	To        types.ReplicaID // -1 for broadcast
	Client    types.ClientID  // set for client-directed messages
	ToClients bool
	Msg       types.Message
}

// Env is a recording engine.Env for one replica under test.
type Env struct {
	t        *testing.T
	id       types.ReplicaID
	cfg      engine.Config
	now      time.Duration
	TC       trusted.Component
	Auth     *trusted.HMACAuthority
	Store    *kvstore.Store
	Outbox   []Sent
	Timers   map[types.TimerID]time.Duration
	Executed []types.SeqNum
	// Requests lists every client request executed, in order (a request the
	// executor's duplicate filter skipped is not executed). A rollback
	// (RestoreState) undoes Executed and Requests along with the store.
	Requests []types.RequestKey
	LogLines []string
	// Hold, while set, parks every VerifyAttestationAsync completion until
	// Release, as the simulator's completion events, still to run, would.
	Hold bool
	held []func()
	// Forged lists the client ids whose authenticator entries this replica
	// finds invalid: what a forging primary or an impersonating client sent.
	Forged map[types.ClientID]bool

	// cluster, when non-nil, routes sends synchronously to peer replicas.
	cluster *Cluster
}

// NewEnv builds an Env for replica id under cfg. All replicas' trusted
// components share one attestation authority so cross-replica attestations
// verify; use NewCluster for multi-replica handler tests.
func NewEnv(t *testing.T, id types.ReplicaID, cfg engine.Config) *Env {
	auth := trusted.NewHMACAuthority(99, cfg.N)
	return newEnvWithAuth(t, id, cfg, auth, trusted.ProfileSGXEnclave, true)
}

// newEnvWithAuth wires an Env against a shared authority.
func newEnvWithAuth(t *testing.T, id types.ReplicaID, cfg engine.Config,
	auth *trusted.HMACAuthority, profile trusted.Profile, keepLog bool) *Env {
	return &Env{
		t:    t,
		id:   id,
		cfg:  cfg,
		Auth: auth,
		TC: trusted.New(trusted.Config{
			Host: id, Profile: profile, KeepLog: keepLog, Attestor: auth.For(id),
		}),
		Store:  kvstore.New(1000),
		Timers: make(map[types.TimerID]time.Duration),
	}
}

// NewSiblingTC creates a trusted component belonging to another replica but
// sharing env's attestation authority, so tests can craft peer messages
// whose attestations verify at the replica under test.
func NewSiblingTC(env *Env, id types.ReplicaID) trusted.Component {
	return trusted.New(trusted.Config{
		Host: id, Profile: trusted.ProfileSGXEnclave, KeepLog: true, Attestor: env.Auth.For(id),
	})
}

// Cluster drives several protocol replicas with synchronous in-memory
// delivery, for handler-level integration tests (view changes, quorums).
type Cluster struct {
	T      *testing.T
	Cfg    engine.Config
	Envs   []*Env
	Protos []engine.Protocol
	// Cut drops messages between pairs: Cut[from][to].
	Cut map[types.ReplicaID]map[types.ReplicaID]bool
	// queue holds undelivered messages when Paused.
	Paused bool
	queue  []queued
}

// queued is a deferred delivery.
type queued struct {
	from, to types.ReplicaID
	msg      types.Message
}

// Batch builds a batch of reqs under its real digest, as a primary's batcher
// does: a backup refuses a proposal whose requests do not hash to its digest.
func Batch(reqs ...*types.ClientRequest) *types.Batch {
	return &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)}
}

// NewCluster builds n connected replicas using mk to construct each
// protocol.
func NewCluster(t *testing.T, cfg engine.Config, mk func(engine.Config) engine.Protocol) *Cluster {
	auth := trusted.NewHMACAuthority(99, cfg.N)
	c := &Cluster{T: t, Cfg: cfg, Cut: make(map[types.ReplicaID]map[types.ReplicaID]bool)}
	for i := 0; i < cfg.N; i++ {
		env := newEnvWithAuth(t, types.ReplicaID(i), cfg, auth, trusted.ProfileSGXEnclave, true)
		env.cluster = c
		c.Envs = append(c.Envs, env)
		c.Protos = append(c.Protos, mk(cfg))
	}
	for i, p := range c.Protos {
		p.Init(c.Envs[i])
	}
	return c
}

// Sever drops all messages from a to b.
func (c *Cluster) Sever(a, b types.ReplicaID) {
	if c.Cut[a] == nil {
		c.Cut[a] = make(map[types.ReplicaID]bool)
	}
	c.Cut[a][b] = true
}

// deliver routes one message, honoring cuts and pause.
func (c *Cluster) deliver(from, to types.ReplicaID, m types.Message) {
	if c.Cut[from][to] {
		return
	}
	if c.Paused {
		c.queue = append(c.queue, queued{from, to, m})
		return
	}
	c.Protos[to].OnMessage(from, m)
}

// Flush delivers all queued messages (and any they generate) until quiet,
// then unpauses. Messages sent while it drains join the back of the queue, so
// every handler runs to completion before the next message is delivered, as
// on a replica's event loop.
func (c *Cluster) Flush() {
	c.Paused = true
	for len(c.queue) > 0 {
		q := c.queue[0]
		c.queue = c.queue[1:]
		if !c.Cut[q.from][q.to] {
			c.Protos[q.to].OnMessage(q.from, q.msg)
		}
	}
	c.Paused = false
}

// SubmitTo sends a client request to one replica.
func (c *Cluster) SubmitTo(r types.ReplicaID, req *types.ClientRequest) {
	c.Protos[r].OnRequest(req)
}

// Responses returns the client responses recorded at replica r.
func (c *Cluster) Responses(r types.ReplicaID) []*types.Response {
	var out []*types.Response
	for _, s := range c.Envs[r].Outbox {
		if resp, ok := s.Msg.(*types.Response); ok {
			out = append(out, resp)
		}
	}
	return out
}

// --- engine.Env implementation on Env ---

// ID implements engine.Env.
func (e *Env) ID() types.ReplicaID { return e.id }

// Send implements engine.Env.
func (e *Env) Send(to types.ReplicaID, m types.Message) {
	e.Outbox = append(e.Outbox, Sent{To: to, Msg: m})
	if e.cluster != nil {
		e.cluster.deliver(e.id, to, m)
	}
}

// Broadcast implements engine.Env.
func (e *Env) Broadcast(m types.Message) {
	e.Outbox = append(e.Outbox, Sent{To: -1, Msg: m})
	if e.cluster != nil {
		for i := 0; i < e.cfg.N; i++ {
			if types.ReplicaID(i) != e.id {
				e.cluster.deliver(e.id, types.ReplicaID(i), m)
			}
		}
	}
}

// Respond implements engine.Env.
func (e *Env) Respond(r *types.Response) {
	e.Outbox = append(e.Outbox, Sent{ToClients: true, Msg: r})
}

// SendClient implements engine.Env.
func (e *Env) SendClient(c types.ClientID, m types.Message) {
	e.Outbox = append(e.Outbox, Sent{Client: c, ToClients: true, Msg: m})
}

// SetTimer implements engine.Env.
func (e *Env) SetTimer(id types.TimerID, d time.Duration) { e.Timers[id] = e.now + d }

// CancelTimer implements engine.Env.
func (e *Env) CancelTimer(id types.TimerID) { delete(e.Timers, id) }

// Now implements engine.Env.
func (e *Env) Now() time.Duration { return e.now }

// Advance moves the test clock.
func (e *Env) Advance(d time.Duration) { e.now += d }

// Trusted implements engine.Env.
func (e *Env) Trusted() trusted.Component { return e.TC }

// VerifyAttestation implements engine.Env.
func (e *Env) VerifyAttestation(a *types.Attestation) bool { return e.Auth.Verify(a) }

// VerifyAttestationAsync implements engine.Env: ptest has no event loop to
// hand completions back to, so the check runs synchronously — unless Hold
// parks its completion.
func (e *Env) VerifyAttestationAsync(a *types.Attestation, done func(bool)) {
	ok := e.Auth.Verify(a)
	if e.Hold {
		e.held = append(e.held, func() { done(ok) })
		return
	}
	done(ok)
}

// Release stops holding and completes every held verification, in the order
// they were requested.
func (e *Env) Release() {
	held := e.held
	e.Hold, e.held = false, nil
	for _, done := range held {
		done()
	}
}

// Crypto implements engine.Env: structural crypto (always-valid signatures,
// and client authenticators valid unless their client is in Forged), since
// ptest exercises protocol logic, not signature math.
func (e *Env) Crypto() crypto.Provider { return trustingCrypto{forged: e.Forged} }

// Execute implements engine.Env.
func (e *Env) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	e.Executed = append(e.Executed, seq)
	for _, r := range b.Requests {
		e.Requests = append(e.Requests, r.Key())
	}
	return e.Store.ApplyBatch(b)
}

// StateDigest implements engine.Env.
func (e *Env) StateDigest() types.Digest { return e.Store.StateDigest() }

// envSnapshot is the store plus how much of the execution record it covers.
type envSnapshot struct {
	store              *kvstore.Snapshot
	executed, requests int
}

// SnapshotState implements engine.Env.
func (e *Env) SnapshotState() any {
	return &envSnapshot{e.Store.Snapshot(), len(e.Executed), len(e.Requests)}
}

// RestoreState implements engine.Env.
func (e *Env) RestoreState(s any) {
	snap := s.(*envSnapshot)
	e.Store.Restore(snap.store)
	e.Executed, e.Requests = e.Executed[:snap.executed], e.Requests[:snap.requests]
}

// Defer implements engine.Env: ptest runs the callback immediately (tests
// are synchronous).
func (e *Env) Defer(fn func()) { fn() }

// Logf implements engine.Env.
func (e *Env) Logf(format string, args ...any) {
	e.LogLines = append(e.LogLines, fmt.Sprintf(format, args...))
}

// SentOfType filters the outbox by message type.
func (e *Env) SentOfType(t types.MsgType) []Sent {
	var out []Sent
	for _, s := range e.Outbox {
		if s.Msg.Type() == t {
			out = append(out, s)
		}
	}
	return out
}

// ClearOutbox empties the recorded messages.
func (e *Env) ClearOutbox() { e.Outbox = nil }

// trustingCrypto accepts everything but the forged clients' requests
// (protocol-logic tests).
type trustingCrypto struct{ forged map[types.ClientID]bool }

func (trustingCrypto) Sign(_ []byte) []byte                               { return []byte("sig") }
func (trustingCrypto) Verify(_ types.ReplicaID, _, _ []byte) bool         { return true }
func (c trustingCrypto) VerifyClient(id types.ClientID, _, _ []byte) bool { return !c.forged[id] }
func (trustingCrypto) VerifyQC(qc *crypto.QuorumCert, _ int) bool         { return qc != nil }

// VerifyWC runs the real structural/chain check: window-attestation tests
// exercise chain-break rejection, which is protocol logic, not key math.
func (trustingCrypto) VerifyWC(wc *crypto.WindowCert) bool { return wc != nil && wc.Check() == nil }
