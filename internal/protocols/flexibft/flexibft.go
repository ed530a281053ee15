// Package flexibft implements Flexi-BFT (paper Section 8.2, Figure 3): a
// two-phase FlexiTrust protocol derived from MinBFT/PBFT that runs on
// n = 3f+1 replicas with 2f+1 vote quorums and touches the trusted counter
// exactly once per consensus instance, at the primary only.
//
// Failure-free path:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ);  broadcast Preprepare(⟨T⟩c, Δ, k, v, σ)
//	replica: verify σ; broadcast Prepare(Δ, k, v, σ)
//	replica: on 2f+1 matching Prepares → commit; execute in k order; respond
//	client: f+1 matching responses
//
// The package adds nothing to the shared pieces; it names them. Sequencing is
// common.FlexiTrust (AppendF, only the primary attests, 2f+1 of 3f+1) on
// common.Core; the slot action is common.TwoPhase (vote, commit on a quorum of
// matching Prepares, report the commit's quorum certificate, re-vote an
// installed NewView). The o-variant (sequential, the paper's ablation) is the
// same code with Config.Parallel=false: the next instance waits for local
// execution.
package flexibft

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
)

// Meta describes Flexi-BFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-BFT",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             2,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's Flexi-BFT instance.
type Protocol struct {
	common.Core
	common.TwoPhase
}

// New constructs a Flexi-BFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{}
	p.Configure(cfg, common.FlexiTrust, &p.TwoPhase)
	p.Attach(&p.Core)
	return p
}
