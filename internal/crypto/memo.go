package crypto

import (
	"sync"

	"flexitrust/internal/types"
)

// VerifyMemo is a bounded memo cache of verification results. Re-proposed
// batches, resent votes and catch-up replays present the same (statement,
// signer) pair repeatedly; once a pair has verified, re-checking it buys no
// security (the statement is content-addressed by the key) and costs a full
// signature or attestation verification on the hot path. The memo records
// only successes — failures are not cached, so a garbled retransmission of
// a good message cannot poison future deliveries of the real one.
//
// Bounding uses two generations: inserts go to the current map, lookups
// consult both, and when the current map reaches half the configured
// capacity it becomes the previous generation and the oldest entries are
// dropped wholesale. This keeps memory bounded without per-entry clocks.

// MemoKind distinguishes the statement families sharing one memo.
type MemoKind uint8

const (
	// KindAttest keys a verified trusted-counter attestation.
	KindAttest MemoKind = iota
	// KindSig keys a verified ordinary signature over a digest.
	KindSig
)

// MemoKey identifies one verified statement: the kind, the signer, the
// attestation coordinates (zero for plain signatures) and the digest the
// statement covers.
type MemoKey struct {
	Kind    MemoKind
	Signer  types.ReplicaID
	Counter uint32
	Epoch   uint32
	Value   uint64
	Digest  types.Digest
}

// AttestationMemoKey builds the memo key for a trusted-counter attestation:
// every field that the verifier checks is part of the key, so a cache hit
// attests to exactly the same statement.
func AttestationMemoKey(a *types.Attestation) MemoKey {
	return MemoKey{
		Kind: KindAttest, Signer: a.Replica,
		Counter: a.Counter, Epoch: a.Epoch, Value: a.Value,
		Digest: a.Digest,
	}
}

// SigMemoKey builds the memo key for an ordinary signature by signer over
// the digest of the signed payload.
func SigMemoKey(signer types.ReplicaID, payloadDigest types.Digest) MemoKey {
	return MemoKey{Kind: KindSig, Signer: signer, Digest: payloadDigest}
}

// VerifyMemo is safe for concurrent use; a nil *VerifyMemo is a valid
// always-miss cache.
type VerifyMemo struct {
	mu   sync.Mutex
	cap  int
	cur  map[MemoKey]struct{}
	prev map[MemoKey]struct{}
}

// DefaultMemoCap bounds the memo to roughly one window of in-flight slots
// times cluster size, with headroom for view-change replays.
const DefaultMemoCap = 8192

// NewVerifyMemo returns a memo bounded to roughly capacity entries
// (DefaultMemoCap when capacity <= 0).
func NewVerifyMemo(capacity int) *VerifyMemo {
	if capacity <= 0 {
		capacity = DefaultMemoCap
	}
	return &VerifyMemo{cap: capacity, cur: make(map[MemoKey]struct{})}
}

// Seen reports whether k verified before.
func (m *VerifyMemo) Seen(k MemoKey) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[k]; ok {
		return true
	}
	_, ok := m.prev[k]
	return ok
}

// Record remembers that k verified successfully.
func (m *VerifyMemo) Record(k MemoKey) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.cur) >= m.cap/2 {
		m.prev, m.cur = m.cur, make(map[MemoKey]struct{})
	}
	m.cur[k] = struct{}{}
}
