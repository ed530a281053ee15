package byz

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/types"
)

// ReportForger is a byzantine BACKUP attacking the per-batch FlexiTrust view
// change. It lets the honest primary's slot 1 go by, then binds a different
// batch X to slot 1 with an AppendF on its OWN trusted counter — a fresh
// counter's first value is 1, so the attestation says value 1 and verifies as
// a genuine mint — wraps that Preprepare in a genuinely-signed ViewChange for
// view 1, broadcasts it, and otherwise stays silent. When the primary later
// stalls, the forged vote is sitting in every replica's view-change tally.
//
// What gives it away is who attested: a slot is bound by the VIEW PRIMARY's
// counter, and the report's attestor is the forger. Replicas that only check
// that the attestation verifies would count the vote and may re-propose X
// over the committed batch.
type ReportForger struct {
	// OpX is the conflicting payload bound to slot 1.
	OpX []byte
	// Bare sends the report in Flexi-ZZ's per-batch wire shape (a bare
	// Preprepare) instead of Flexi-BFT's PreparedProof.
	Bare bool

	env engine.Env
	// ForgedVCSent records that the attack ran; BatchX is the forged digest.
	ForgedVCSent bool
	BatchX       types.Digest
}

// Init implements engine.Protocol.
func (r *ReportForger) Init(env engine.Env) { r.env = env }

// OnRequest implements engine.Protocol.
func (r *ReportForger) OnRequest(*types.ClientRequest) {}

// OnMessage implements engine.Protocol: the primary's first proposal
// triggers the scripted attack.
func (r *ReportForger) OnMessage(_ types.ReplicaID, m types.Message) {
	if _, ok := m.(*types.Preprepare); !ok || r.ForgedVCSent {
		return
	}
	// A phantom client keeps the honest replicas' response caches from
	// learning a request number of the real client's.
	batchX := &types.Batch{Requests: []*types.ClientRequest{{Client: 0xBEEF, ReqNo: 1, Op: r.OpX}}}
	batchX.Digest = crypto.BatchDigest(batchX.Requests)
	r.BatchX = batchX.Digest
	att, err := r.env.Trusted().AppendF(0, batchX.Digest)
	if err != nil {
		panic("byz: forger AppendF failed: " + err.Error())
	}
	pp := &types.Preprepare{View: 0, Seq: types.SeqNum(att.Value), Batch: batchX, Attest: att}
	vc := &types.ViewChange{Replica: r.env.ID(), NewView: 1}
	if r.Bare {
		vc.Preprepares = []*types.Preprepare{pp}
	} else {
		vc.Prepared = []*types.PreparedProof{{Preprepare: pp}}
	}
	signViewChange(r.env, vc)
	r.env.Broadcast(vc)
	r.ForgedVCSent = true
}

// OnTimer implements engine.Protocol.
func (r *ReportForger) OnTimer(types.TimerID) {}
