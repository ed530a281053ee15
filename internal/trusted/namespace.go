package trusted

import "flexitrust/internal/types"

// Counter-identifier namespacing.
//
// A protocol instance names its counters with small local identifiers
// (Flexi-BFT's q = 0, MinBFT's seq/usig counters 0 and 1). When two protocol
// instances share one trusted component — the sharded deployments built by
// internal/shard co-host one consensus group per shard on each machine — those
// local identifiers would alias: both groups would increment the *same*
// monotonic counter, interleaving their sequence numbers and stalling both.
//
// Namespaced fixes the identity: it returns a view of a component whose
// counter and log identifiers are remapped into a private 16-bit namespace
// (q' = ns<<16 | q), so instance-local identifiers can never collide across
// groups. The attestations a namespaced view returns carry the *local*
// identifier again, keeping the protocol code namespace-oblivious; their
// proofs, however, bind the namespaced identifier — which is exactly the
// non-equivocation property sharding needs, since an attestation minted for
// shard 3's counter 0 must not verify as shard 5's. Verifiers therefore remap
// with MapAttestation before checking the proof; engine.Host does this on
// both substrates when engine.Config.TrustedNamespace is set.

// nsShift positions the namespace in the top 16 bits of the wire identifier.
const nsShift = 16

// localQMask masks an identifier down to its instance-local 16 bits. Local
// identifiers above 16 bits are reserved for namespacing and masked off.
const localQMask = (1 << nsShift) - 1

// Namespaced returns a view of c whose counter/log identifiers live in the
// private namespace ns. Namespace 0 is the identity view (c itself).
func Namespaced(c Component, ns uint16) Component {
	if ns == 0 {
		return c
	}
	return &nsComponent{inner: c, ns: ns}
}

// MapAttestation returns a copy of a with its counter identifier remapped
// into namespace ns — the form the proof was minted over. Verifiers of
// attestations produced through a Namespaced view must remap before checking
// the proof. ns == 0 (or a nil attestation) returns a unchanged.
func MapAttestation(a *types.Attestation, ns uint16) *types.Attestation {
	if ns == 0 || a == nil {
		return a
	}
	m := *a
	m.Counter = uint32(ns)<<nsShift | (a.Counter & localQMask)
	return &m
}

// nsComponent remaps identifiers on the way in and restores the local
// identifier on returned attestations.
type nsComponent struct {
	inner Component
	ns    uint16
}

// mapQ moves a local identifier into the namespace.
func (n *nsComponent) mapQ(q uint32) uint32 { return uint32(n.ns)<<nsShift | (q & localQMask) }

// unmap copies an attestation and restores the instance-local identifier.
// The proof still binds the namespaced identifier (see MapAttestation).
func (n *nsComponent) unmap(a *types.Attestation) *types.Attestation {
	if a == nil {
		return nil
	}
	m := *a
	m.Counter = a.Counter & localQMask
	return &m
}

func (n *nsComponent) Host() types.ReplicaID { return n.inner.Host() }
func (n *nsComponent) Profile() Profile      { return n.inner.Profile() }

// AppendF implements Component.
func (n *nsComponent) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	a, err := n.inner.AppendF(n.mapQ(q), x)
	return n.unmap(a), err
}

// Append implements Component.
func (n *nsComponent) Append(q uint32, kNew uint64, x types.Digest) (*types.Attestation, error) {
	a, err := n.inner.Append(n.mapQ(q), kNew, x)
	return n.unmap(a), err
}

// Lookup implements Component.
func (n *nsComponent) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	a, err := n.inner.Lookup(n.mapQ(q), k)
	return n.unmap(a), err
}

// Create implements Component.
func (n *nsComponent) Create(q uint32, k uint64) (*types.Attestation, error) {
	a, err := n.inner.Create(n.mapQ(q), k)
	return n.unmap(a), err
}

// Current implements Component.
func (n *nsComponent) Current(q uint32) (uint32, uint64, error) {
	return n.inner.Current(n.mapQ(q))
}

func (n *nsComponent) Accesses() uint64       { return n.inner.Accesses() }
func (n *nsComponent) LogSize() int           { return n.inner.LogSize() }
func (n *nsComponent) Snapshot() *State       { return n.inner.Snapshot() }
func (n *nsComponent) Restore(s *State) error { return n.inner.Restore(s) }
