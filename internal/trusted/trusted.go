// Package trusted implements the trusted-component abstraction that trust-bft
// and FlexiTrust protocols build on (Definition 1 in the paper): a
// cryptographically secure entity co-located with a replica that provably
// performs a specific computation. Two primitives are provided, matching the
// paper's Section 4.1:
//
//   - Monotonic counters: Append (host-supplied value, MinBFT/TrInc style),
//     AppendF (internally incremented, the FlexiTrust restriction), and
//     Create (fresh counter incarnations for view changes).
//   - Attested append-only logs: Append stores the message, Lookup returns a
//     signed Attest(q, k, x) statement (PBFT-EA/HotStuff-M style).
//
// The package also models the two real-world failure modes the paper's
// analysis turns on:
//
//   - Rollback attacks (Section 6): unless a component is constructed with
//     RollbackProtected, a malicious host can Snapshot and Restore its state,
//     re-enabling equivocation. The byz package uses this to reproduce the
//     MinBFT safety violation.
//   - Access latency (Sections 9.3, 9.9): every component carries an access
//     cost, from ~15µs (counter inside an SGX enclave) to 200ms (TPM). The
//     simulator charges this cost on a serialized per-component resource;
//     the real runtime can optionally sleep it.
package trusted

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"time"

	"flexitrust/internal/types"
)

// Errors returned by trusted component operations.
var (
	// ErrNonMonotonic is returned when Append is asked to move a counter
	// backwards or reuse a slot.
	ErrNonMonotonic = errors.New("trusted: counter value not monotonically increasing")
	// ErrNoSuchSlot is returned by Lookup for an empty log slot.
	ErrNoSuchSlot = errors.New("trusted: no value at requested log slot")
	// ErrRollbackProtected is returned by Restore on hardware that defends
	// against rollback (persistent counters, TPMs).
	ErrRollbackProtected = errors.New("trusted: component is rollback-protected")
	// ErrNoSuchCounter is returned when a counter id has not been created.
	ErrNoSuchCounter = errors.New("trusted: no such counter")
)

// Profile describes a class of trusted hardware: its access latency and
// whether its state survives (and resists) host-driven rollback. The values
// mirror the paper's Section 9.9 discussion.
type Profile struct {
	Name string
	// AccessCost is the latency of one counter/log operation.
	AccessCost time.Duration
	// RollbackProtected reports whether state rollback is prevented
	// (persistent counters, TPMs) or possible (plain SGX enclave memory).
	RollbackProtected bool
}

// Predefined hardware profiles.
var (
	// ProfileSGXEnclave is a counter kept in enclave memory, as used for
	// the paper's main experiments: a fast ecall round trip. (The paper's
	// Figure 5 microbenchmark implies a costlier per-access path in the
	// authors' instrumented build; EXPERIMENTS.md discusses the
	// discrepancy. We keep one consistent fast-enclave cost.)
	ProfileSGXEnclave = Profile{Name: "sgx-enclave", AccessCost: 25 * time.Microsecond}
	// ProfileADAMCS models the ADAM-CS asynchronous monotonic counter
	// service: <10ms and rollback-protected.
	ProfileADAMCS = Profile{Name: "adam-cs", AccessCost: 5 * time.Millisecond, RollbackProtected: true}
	// ProfileSGXPersistent is an SGX persistent (NVRAM-backed) counter:
	// rollback-protected but tens of milliseconds per access.
	ProfileSGXPersistent = Profile{Name: "sgx-persistent", AccessCost: 60 * time.Millisecond, RollbackProtected: true}
	// ProfileTPM is a TPM monotonic counter: 80-200ms per access.
	ProfileTPM = Profile{Name: "tpm", AccessCost: 120 * time.Millisecond, RollbackProtected: true}
)

// WithAccessCost returns a copy of the profile with the access cost replaced;
// used by the Figure 8 latency sweep.
func (p Profile) WithAccessCost(d time.Duration) Profile {
	p.AccessCost = d
	return p
}

// Component is the host-facing API of one replica's trusted component t_r.
// All methods are safe for concurrent use (the paper's SGX implementation is
// accessed by multiple worker threads).
type Component interface {
	// Host returns the replica this component is attached to.
	Host() types.ReplicaID
	// Profile returns the hardware profile (access cost, rollback class).
	Profile() Profile

	// AppendF implements the FlexiTrust restricted append: the component
	// increments counter q internally and binds the new value to digest x,
	// returning the attestation ⟨Attest(q, k, x)⟩. Counters are created
	// implicitly at value 0 (first attested value is 1).
	AppendF(q uint32, x types.Digest) (*types.Attestation, error)

	// Append implements the classic trust-bft append: the host supplies the
	// new value kNew. kNew == 0 means "next" (⊥ in the paper). If the
	// component keeps a log, x is stored at the slot for later Lookup.
	Append(q uint32, kNew uint64, x types.Digest) (*types.Attestation, error)

	// Lookup returns the attestation for the value stored at slot k of log
	// q, or ErrNoSuchSlot. Only log-keeping components store values;
	// counter-only components return ErrNoSuchSlot for everything.
	Lookup(q uint32, k uint64) (*types.Attestation, error)

	// Create starts a fresh incarnation (epoch) of counter q at value k and
	// returns an attestation of the new (epoch, value). New primaries use
	// it after a view change to restart consensus at the right slot.
	Create(q uint32, k uint64) (*types.Attestation, error)

	// Current returns the current (epoch, value) of counter q.
	Current(q uint32) (epoch uint32, value uint64, err error)

	// Accesses returns the total number of counter/log operations performed,
	// used by the Figure 5 accounting and by tests.
	Accesses() uint64

	// LogSize returns the number of entries currently stored across all
	// logs (the paper's Figure 1 "memory" column).
	LogSize() int

	// Snapshot captures the component's full state. A correct host never
	// calls this; the byz package uses it to mount rollback attacks.
	Snapshot() *State
	// Restore rewinds the component to a snapshot. Rollback-protected
	// hardware returns ErrRollbackProtected.
	Restore(*State) error
}

// State is an opaque snapshot of a component's counters and logs.
type State struct {
	counters map[uint32]counter
	logs     map[uint32]map[uint64]types.Digest
}

// counter is one monotonic counter's state.
type counter struct {
	epoch uint32
	value uint64
}

// logEntryKey identifies a stored log slot.
type logEntryKey struct {
	q uint32
	k uint64
}

// component is the single implementation of Component; KeepLog selects
// between the counter-only (MinBFT) and counter+log (PBFT-EA, TrInc) shapes.
type component struct {
	mu       sync.Mutex
	host     types.ReplicaID
	profile  Profile
	keepLog  bool
	attestor Attestor
	counters map[uint32]counter
	logs     map[uint32]map[uint64]types.Digest
	accesses uint64
	logSize  int
}

// Config selects the shape of a trusted component.
type Config struct {
	Host    types.ReplicaID
	Profile Profile
	// KeepLog stores appended digests for Lookup (trusted-log protocols).
	KeepLog bool
	// Attestor signs attestations; use NewHMACAuthority for a cluster.
	Attestor Attestor
}

// New constructs a trusted component.
func New(cfg Config) Component {
	if cfg.Attestor == nil {
		panic("trusted: Config.Attestor is required")
	}
	return &component{
		host:     cfg.Host,
		profile:  cfg.Profile,
		keepLog:  cfg.KeepLog,
		attestor: cfg.Attestor,
		counters: make(map[uint32]counter),
		logs:     make(map[uint32]map[uint64]types.Digest),
	}
}

func (c *component) Host() types.ReplicaID { return c.host }
func (c *component) Profile() Profile      { return c.profile }

func (c *component) attest(q uint32, ctr counter, x types.Digest) *types.Attestation {
	a := &types.Attestation{
		Replica: c.host,
		Counter: q,
		Epoch:   ctr.epoch,
		Value:   ctr.value,
		Digest:  x,
	}
	c.attestor.Attest(a)
	return a
}

// AppendF implements Component.
func (c *component) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accesses++
	ctr := c.counters[q]
	ctr.value++
	c.counters[q] = ctr
	if c.keepLog {
		c.storeLocked(q, ctr.value, x)
	}
	return c.attest(q, ctr, x), nil
}

// Append implements Component.
func (c *component) Append(q uint32, kNew uint64, x types.Digest) (*types.Attestation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accesses++
	ctr := c.counters[q]
	switch {
	case kNew == 0:
		ctr.value++
	case kNew > ctr.value:
		ctr.value = kNew
	default:
		return nil, fmt.Errorf("%w: counter %d at %d, requested %d", ErrNonMonotonic, q, ctr.value, kNew)
	}
	c.counters[q] = ctr
	if c.keepLog {
		c.storeLocked(q, ctr.value, x)
	}
	return c.attest(q, ctr, x), nil
}

// storeLocked records x at slot k of log q. Callers hold c.mu.
func (c *component) storeLocked(q uint32, k uint64, x types.Digest) {
	log := c.logs[q]
	if log == nil {
		log = make(map[uint64]types.Digest)
		c.logs[q] = log
	}
	if _, exists := log[k]; !exists {
		c.logSize++
	}
	log[k] = x
}

// Lookup implements Component.
func (c *component) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accesses++
	if !c.keepLog {
		return nil, ErrNoSuchSlot
	}
	x, ok := c.logs[q][k]
	if !ok {
		return nil, ErrNoSuchSlot
	}
	ctr := c.counters[q]
	return c.attest(q, counter{epoch: ctr.epoch, value: k}, x), nil
}

// Create implements Component.
func (c *component) Create(q uint32, k uint64) (*types.Attestation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accesses++
	ctr := c.counters[q]
	ctr.epoch++
	ctr.value = k
	c.counters[q] = ctr
	if c.keepLog {
		delete(c.logs, q)
	}
	return c.attest(q, ctr, types.ZeroDigest), nil
}

// Current implements Component.
func (c *component) Current(q uint32) (uint32, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[q]
	if !ok {
		return 0, 0, ErrNoSuchCounter
	}
	return ctr.epoch, ctr.value, nil
}

// Accesses implements Component.
func (c *component) Accesses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accesses
}

// LogSize implements Component.
func (c *component) LogSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logSize
}

// Snapshot implements Component.
func (c *component) Snapshot() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &State{
		counters: make(map[uint32]counter, len(c.counters)),
		logs:     make(map[uint32]map[uint64]types.Digest, len(c.logs)),
	}
	for q, ctr := range c.counters {
		s.counters[q] = ctr
	}
	for q, log := range c.logs {
		cp := make(map[uint64]types.Digest, len(log))
		for k, x := range log {
			cp[k] = x
		}
		s.logs[q] = cp
	}
	return s
}

// Restore implements Component.
func (c *component) Restore(s *State) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profile.RollbackProtected {
		return ErrRollbackProtected
	}
	c.counters = make(map[uint32]counter, len(s.counters))
	for q, ctr := range s.counters {
		c.counters[q] = ctr
	}
	c.logs = make(map[uint32]map[uint64]types.Digest, len(s.logs))
	c.logSize = 0
	for q, log := range s.logs {
		cp := make(map[uint64]types.Digest, len(log))
		for k, x := range log {
			cp[k] = x
			c.logSize++
		}
		c.logs[q] = cp
	}
	return nil
}

// Attestor signs and verifies trusted-component attestations. The hardware
// vendor provisions each component with an attestation key whose public part
// (or, for the HMAC scheme, a shared verification secret) is known to every
// replica.
type Attestor interface {
	// Attest fills a.Proof with a signature over a.Bytes().
	Attest(a *types.Attestation)
	// Verify checks that a.Proof is a valid signature by a.Replica's
	// trusted component over a.Bytes().
	Verify(a *types.Attestation) bool
}

// HMACAuthority is a cluster-wide attestation authority using per-component
// HMAC-SHA256 keys. Every replica holds the verification keys (the paper's
// model: attestations are verifiable by all). The per-component signing key
// is held *only* by the component; the host replica cannot forge
// attestations, which is exactly the non-equivocation guarantee the
// protocols need.
type HMACAuthority struct {
	keys []*hmacKey
}

// hmacKey is one component's key as a keyed HMAC state, reset for each
// statement and shared by every signer and verifier in the cluster, with the
// statement's encoding and the MAC as reused scratch (a buffer handed to a
// hash.Hash escapes): verifying allocates nothing.
type hmacKey struct {
	mu  sync.Mutex
	mac hash.Hash
	in  []byte
	sum []byte
}

// NewHMACAuthority derives component keys for n replicas from seed.
func NewHMACAuthority(seed int64, n int) *HMACAuthority {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]*hmacKey, n)
	for i := range keys {
		key := make([]byte, 32)
		rng.Read(key)
		keys[i] = &hmacKey{
			mac: hmac.New(sha256.New, key),
			in:  make([]byte, 0, types.AttestationLen),
			sum: make([]byte, 0, sha256.Size),
		}
	}
	return &HMACAuthority{keys: keys}
}

// For returns the Attestor bound to replica r's component.
func (h *HMACAuthority) For(r types.ReplicaID) Attestor {
	return &hmacAttestor{auth: h, self: r}
}

// Verify checks an attestation from any component in the cluster.
func (h *HMACAuthority) Verify(a *types.Attestation) bool {
	if a == nil || int(a.Replica) < 0 || int(a.Replica) >= len(h.keys) {
		return false
	}
	k := h.keys[a.Replica]
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sum = k.sign(a, k.sum[:0])
	return hmac.Equal(k.sum, a.Proof)
}

// sign appends to dst the MAC of a's statement; the caller holds k.mu.
func (k *hmacKey) sign(a *types.Attestation, dst []byte) []byte {
	k.in = a.AppendBytes(k.in[:0])
	k.mac.Reset()
	k.mac.Write(k.in)
	return k.mac.Sum(dst)
}

// hmacAttestor signs with one component's key and verifies with any.
type hmacAttestor struct {
	auth *HMACAuthority
	self types.ReplicaID
}

// Attest implements Attestor. The proof is the one allocation: the
// attestation keeps it.
func (h *hmacAttestor) Attest(a *types.Attestation) {
	k := h.auth.keys[h.self]
	k.mu.Lock()
	defer k.mu.Unlock()
	a.Proof = k.sign(a, make([]byte, 0, sha256.Size))
}

// Verify implements Attestor.
func (h *hmacAttestor) Verify(a *types.Attestation) bool { return h.auth.Verify(a) }
