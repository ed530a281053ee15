package flexizz

import (
	"testing"

	"flexitrust/internal/crypto"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// The windowed-attestation suite both FlexiTrust protocols share is
// common/window_test.go; what stays here is Flexi-ZZ's own.

func TestNonWindowedViewChangeRejectsPreparedProofs(t *testing.T) {
	// Outside windowed mode a Flexi-ZZ ViewChange carries bare (attested)
	// Preprepares; a report must carry its own attestation whichever list it
	// arrives in, so an unattested Prepared proof is never merged into the
	// new view.
	cfg := cfg4()
	env := ptest.NewEnv(t, 1, cfg)
	p := New(cfg)
	p.Init(env)

	reqA := request(1)
	batchA := &types.Batch{Requests: []*types.ClientRequest{reqA}, Digest: crypto.BatchDigest([]*types.ClientRequest{reqA})}
	vc := &types.ViewChange{
		Replica: 2, NewView: 1,
		Prepared: []*types.PreparedProof{{
			Preprepare: &types.Preprepare{View: 0, Seq: 1, Batch: batchA},
		}},
	}
	if p.ValidateViewChange(vc) {
		t.Fatal("accepted unvalidated PreparedProofs on the per-batch path")
	}
}
