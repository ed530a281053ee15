// Package minbft implements MinBFT (Veronese et al., and the paper's
// Section 4.2): a two-phase trust-bft protocol on n = 2f+1 replicas where
// every replica binds each outgoing consensus message to its local trusted
// monotonic counter (USIG-style), and f+1 matching Prepares commit.
//
//	primary: Append(q, Δ) → Preprepare(⟨T⟩c, Δ, k, v, σ_p)
//	replica: verify σ_p; Append(q', Δ) → Prepare(Δ, k, v, σ_r); broadcast
//	replica: f+1 matching Prepares (the Preprepare counts as the primary's)
//	         → committed; execute in order; respond
//	client:  f+1 matching responses
//
// The trusted counters prevent equivocation, which is what makes the f+1
// quorum safe with only 2f+1 replicas — but, as the paper's analysis shows,
// it also makes the protocol sequential (each replica's counter must advance
// in consensus order, so instances cannot overlap: out-of-order Preprepares
// are buffered, and the primary proposes one instance at a time) and leaves
// clients unguaranteed to collect f+1 matching responses (Section 5).
//
// The package adds nothing to the shared pieces; it names them. Sequencing is
// common.TrustBFT (host-sequenced Append, every replica attests, f+1 of 2f+1)
// on common.Core; the slot action is common.TwoPhase, whose votes then carry
// and verify a USIG attestation. Flexi-BFT is this with the other sequencing.
package minbft

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
)

// Meta describes MinBFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "MinBFT",
	Replicas:           func(f int) int { return 2*f + 1 },
	Phases:             2,
	TrustedAbstraction: "counter",
	BFTLiveness:        false,
	OutOfOrder:         false,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's MinBFT instance.
type Protocol struct {
	common.Core
	common.TwoPhase
}

// New constructs a MinBFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{}
	p.Configure(cfg, common.TrustBFT, &p.TwoPhase)
	p.Attach(&p.Core)
	return p
}
