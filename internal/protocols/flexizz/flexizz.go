// Package flexizz implements Flexi-ZZ (paper Section 8.3, Figure 4): a
// single-phase speculative FlexiTrust protocol derived from Zyzzyva/MinZZ,
// on n = 3f+1 replicas.
//
// Common case:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ); broadcast Preprepare(⟨T⟩c, Δ, k, v, σ);
//	         execute speculatively in k order; respond
//	replica: verify σ; execute speculatively in k order; respond
//	client: 2f+1 matching responses in matching views
//
// Unlike Zyzzyva and MinZZ, whose fast path needs responses from *all*
// replicas, Flexi-ZZ needs only n−f = 2f+1, so a single crashed replica
// does not knock it off the single-round path (the paper's Figure 7).
//
// The package adds nothing to the shared pieces; it names them. Sequencing is
// common.FlexiTrust (AppendF, only the primary attests, 2f+1 of 3f+1) on
// common.Core; the slot action is common.Speculation (execute on
// certification, roll back what an installed NewView contradicts). The
// o-variant (Config.Parallel=false) gates the next instance on a 2f+1
// acknowledgement quorum, since the primary executes at propose time.
package flexizz

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
)

// Meta describes Flexi-ZZ for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-ZZ",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             1,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return 2*f + 1 },
	Speculative:        true,
}

// Protocol is one replica's Flexi-ZZ instance.
type Protocol struct {
	common.Core
	common.Speculation
}

// New constructs a Flexi-ZZ replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{}
	p.Configure(cfg, common.FlexiTrust, &p.Speculation)
	p.Attach(&p.Core)
	return p
}
