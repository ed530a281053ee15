// Package minzz implements MinZZ (MinZyzzyva, Veronese et al.): the
// single-phase speculative trust-bft protocol on n = 2f+1 replicas the
// paper evaluates. The primary binds each batch to its trusted counter;
// replicas verify the attestation, bind their response with their own
// counter, execute speculatively in order and reply. The client's fast path
// needs matching responses from *all* n = 2f+1 replicas, so a single slow or
// crashed replica forces the commit-certificate slow path (the paper's
// Figure 7 degradation). Like MinBFT, consensus instances are inherently
// sequential.
//
// Sequencing is common.TrustBFT (host-sequenced Append, every replica
// attests, f+1 of 2f+1) on common.Core and the slot action is
// common.Speculation, its sequential pipeline gated on f+1 acknowledgements;
// Flexi-ZZ is this with the other sequencing. What the package adds is
// taking a client's commit certificate, which common.Base.OnCommitCert
// answers as it does for Zyzzyva.
package minzz

import (
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// Meta describes MinZZ for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "MinZZ",
	Replicas:           func(f int) int { return 2*f + 1 },
	Phases:             1,
	TrustedAbstraction: "counter",
	BFTLiveness:        false,
	OutOfOrder:         false,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      false,
	ClientReplies:      func(n, f int) int { return n }, // all 2f+1
	Speculative:        true,
}

// Protocol is one replica's MinZZ instance.
type Protocol struct {
	common.Core
	common.Speculation
}

// New constructs a MinZZ replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{}
	p.Configure(cfg, common.TrustBFT, &p.Speculation)
	p.Attach(&p.Core)
	return p
}

// OnMessage implements engine.Protocol.
func (p *Protocol) OnMessage(from types.ReplicaID, m types.Message) {
	if cc, ok := m.(*types.CommitCert); ok {
		p.OnCommitCert(p.Preprepares, cc)
		return
	}
	p.Core.OnMessage(from, m)
}
