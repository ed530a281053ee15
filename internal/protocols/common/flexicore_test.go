package common_test

import (
	"testing"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// One suite, two protocols: whatever common.FlexiCore implements is checked
// against both Flexi-BFT and Flexi-ZZ from one table. Protocol-specific
// behaviour (vote quorums, rollback, sequential acks) stays in the protocol
// packages' own tests.

// flexiReplica is the surface the suite drives.
type flexiReplica interface {
	engine.Protocol
	common.Hooks
	SlotDigest(types.SeqNum) (types.Digest, bool)
	SuspectPrimary()
}

// flexiCase is one protocol under the shared suite.
type flexiCase struct {
	name string
	mk   func(engine.Config) flexiReplica
	core func(engine.Protocol) *common.FlexiCore
	// acted counts the slots a backup has acted on once certified: Flexi-BFT
	// broadcasts a Prepare, Flexi-ZZ executes.
	acted func(*ptest.Env) int
	// speculative: the primary executes at propose time.
	speculative bool
}

var flexiCases = []flexiCase{{
	name:  "flexibft",
	mk:    func(cfg engine.Config) flexiReplica { return flexibft.New(cfg) },
	core:  func(p engine.Protocol) *common.FlexiCore { return &p.(*flexibft.Protocol).FlexiCore },
	acted: func(env *ptest.Env) int { return len(env.SentOfType(types.MsgPrepare)) },
}, {
	name:        "flexizz",
	mk:          func(cfg engine.Config) flexiReplica { return flexizz.New(cfg) },
	core:        func(p engine.Protocol) *common.FlexiCore { return &p.(*flexizz.Protocol).FlexiCore },
	acted:       func(env *ptest.Env) int { return len(env.Executed) },
	speculative: true,
}}

// forEachFlexi runs fn once per protocol as a subtest.
func forEachFlexi(t *testing.T, fn func(t *testing.T, fc flexiCase)) {
	for _, fc := range flexiCases {
		t.Run(fc.name, func(t *testing.T) { fn(t, fc) })
	}
}

// replicaAt builds and initialises one replica of fc on a recording Env.
func replicaAt(t *testing.T, fc flexiCase, id types.ReplicaID, cfg engine.Config) (flexiReplica, *ptest.Env) {
	env := ptest.NewEnv(t, id, cfg)
	p := fc.mk(cfg)
	p.Init(env)
	return p, env
}

// batchOf builds a one-request batch with its real digest.
func batchOf(reqNo uint64) *types.Batch {
	reqs := []*types.ClientRequest{request(1, reqNo)}
	return &types.Batch{Requests: reqs, Digest: crypto.BatchDigest(reqs)}
}

// overWire returns m as a peer would receive it: encoded and decoded by the
// real codec, so optional fields arrive the way the wire leaves them.
func overWire[M types.Message](t *testing.T, m M) M {
	t.Helper()
	frame, err := wire.Encode(&wire.Envelope{Msg: m})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	env, err := wire.Decode(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return env.Msg.(M)
}

// TestPreprepareWithoutBatchRejected feeds a primary-attested Preprepare whose
// optional Batch is absent down the three roads a Preprepare can arrive by —
// live, inside a view-change report (both wire shapes), and as a NewView
// proposal. None may dereference the missing batch; all must reject it.
func TestPreprepareWithoutBatchRejected(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		for _, window := range []int{0, 2} {
			cfg := cfg4()
			cfg.AttestWindow = window
			p, env := replicaAt(t, fc, 1, cfg)
			att, err := ptest.NewSiblingTC(env, 0).AppendF(0, types.ZeroDigest)
			if err != nil {
				t.Fatal(err)
			}
			bare := overWire(t, &types.Preprepare{Seq: types.SeqNum(att.Value), Attest: att})
			if bare.Batch != nil {
				t.Fatal("codec invented a batch; the test is vacuous")
			}

			// Road 1, live: with its attestation (per-batch shape) and without
			// (windowed shape).
			p.OnMessage(0, bare)
			p.OnMessage(0, overWire(t, &types.Preprepare{Seq: 1}))
			if _, ok := p.SlotDigest(1); ok || len(fc.core(p).Preprepares) != 0 {
				t.Fatalf("window=%d: recorded a proposal that has no batch", window)
			}

			// Road 2, view-change report: rejected on receipt, and skipped by a
			// new primary that finds one in its quorum anyway.
			qc := crypto.AssembleQC(0, 1, types.ZeroDigest, types.ZeroDigest, cfg.N, []types.ReplicaID{0, 1, 2})
			reports := []*types.ViewChange{
				{Replica: 2, NewView: 1, Prepared: []*types.PreparedProof{{Preprepare: bare, QC: qc.Encode()}}},
				{Replica: 3, NewView: 1, Preprepares: []*types.Preprepare{bare}},
			}
			for i, vc := range reports {
				if p.ValidateViewChange(overWire(t, vc)) {
					t.Fatalf("window=%d: accepted view-change report %d carrying a batchless preprepare", window, i)
				}
			}
			if nv := p.BuildNewView(1, reports); len(nv.Proposals) != 0 {
				t.Fatalf("window=%d: new primary re-proposed %d slots from batchless reports", window, len(nv.Proposals))
			}

			// Road 3, NewView proposal at a backup of view 1.
			backup, benv := replicaAt(t, fc, 2, cfg)
			newTC := ptest.NewSiblingTC(benv, 1)
			init, err := newTC.Create(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			reatt, err := newTC.AppendF(0, types.ZeroDigest)
			if err != nil {
				t.Fatal(err)
			}
			nv := overWire(t, &types.NewView{
				View: 1, CounterInit: init,
				Proposals: []*types.Preprepare{{View: 1, Seq: types.SeqNum(reatt.Value), Attest: reatt}},
			})
			if backup.ProcessNewView(nv) {
				t.Fatalf("window=%d: installed a NewView proposing a batchless slot", window)
			}
		}
	})
}

// TestPerBatchReportMustBindItsSlot: a per-batch view-change report proves a
// slot only if its attestation is the binding the live path would have
// admitted — minted by the reported view's primary, on the sequencing
// counter, under that view's incarnation, for exactly this slot and batch,
// in a view before the one being installed. Anything else is a digest some
// replica attested on a counter of its own choosing. Checked on receipt
// (ValidateViewChange) and again where the new primary collects slots
// (BuildNewView), for both wire shapes a report travels in.
func TestPerBatchReportMustBindItsSlot(t *testing.T) {
	cases := []struct {
		name     string
		attestor types.ReplicaID // whose trusted component mints the attestation
		counter  uint32
		reCreate bool // mint under a fresh incarnation the view never used
		view     types.View
		seq      types.SeqNum
		digest   uint64 // request number whose batch digest gets attested
		want     bool
	}{
		{name: "genuine", attestor: 0, seq: 1, digest: 99, want: true},
		{name: "a backup's own counter", attestor: 3, seq: 1, digest: 99},
		{name: "another counter of the primary", attestor: 0, counter: 1, seq: 1, digest: 99},
		{name: "counter value is not the slot", attestor: 0, seq: 2, digest: 99},
		{name: "attested digest is not the batch's", attestor: 0, seq: 1, digest: 98},
		{name: "incarnation the view never used", attestor: 0, reCreate: true, seq: 1, digest: 99},
		{name: "view not before the one being installed", attestor: 1, view: 1, seq: 1, digest: 99},
	}
	shapes := []struct {
		name string
		wrap func(*types.Preprepare) *types.ViewChange
	}{
		{"prepared", func(pp *types.Preprepare) *types.ViewChange {
			return &types.ViewChange{Replica: 3, NewView: 1, Prepared: []*types.PreparedProof{{Preprepare: pp}}}
		}},
		{"bare", func(pp *types.Preprepare) *types.ViewChange {
			return &types.ViewChange{Replica: 3, NewView: 1, Preprepares: []*types.Preprepare{pp}}
		}},
	}
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		for _, tc := range cases {
			for _, shape := range shapes {
				p, env := replicaAt(t, fc, 1, cfg4()) // view 0, incarnation 0; primary of view 1
				mint := ptest.NewSiblingTC(env, tc.attestor)
				if tc.reCreate {
					if _, err := mint.Create(tc.counter, 0); err != nil {
						t.Fatal(err)
					}
				}
				att, err := mint.AppendF(tc.counter, batchOf(tc.digest).Digest)
				if err != nil {
					t.Fatal(err)
				}
				x := batchOf(99)
				vc := shape.wrap(&types.Preprepare{View: tc.view, Seq: tc.seq, Batch: x, Attest: att})
				if got := p.ValidateViewChange(vc); got != tc.want {
					t.Errorf("%s/%s: ValidateViewChange = %v, want %v", tc.name, shape.name, got, tc.want)
				}
				nv := p.BuildNewView(1, []*types.ViewChange{vc})
				if bound := len(nv.Proposals) == 1 && nv.Proposals[0].Batch.Digest == x.Digest; bound != tc.want {
					t.Errorf("%s/%s: new primary re-proposed the reported batch = %v, want %v",
						tc.name, shape.name, bound, tc.want)
				}
			}
		}
	})
}

// TestRejectedNewViewLeavesEpochAlone: a NewView with a genuine CounterInit
// but a bad proposal is rejected, and the backup stays on the counter
// incarnation of the view it is still in — otherwise it would refuse every
// further proposal of its current primary.
func TestRejectedNewViewLeavesEpochAlone(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		p, env := replicaAt(t, fc, 2, cfg4())
		newTC := ptest.NewSiblingTC(env, 1)
		init, err := newTC.Create(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		att, err := newTC.AppendF(0, batchOf(1).Digest)
		if err != nil {
			t.Fatal(err)
		}
		// The proposal's batch is not the one its attestation binds.
		nv := &types.NewView{View: 1, CounterInit: init,
			Proposals: []*types.Preprepare{{View: 1, Seq: 1, Batch: batchOf(2), Attest: att}}}
		if p.ProcessNewView(nv) {
			t.Fatal("installed a NewView whose proposal does not match its attestation")
		}
		if got := fc.core(p).CurEpoch; got != 0 {
			t.Fatalf("rejected NewView moved the replica to epoch %d", got)
		}
		// The view-0 primary's next proposal is still admitted.
		b := batchOf(3)
		live, err := ptest.NewSiblingTC(env, 0).AppendF(0, b.Digest)
		if err != nil {
			t.Fatal(err)
		}
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b, Attest: live})
		if d, ok := p.SlotDigest(1); !ok || d != b.Digest {
			t.Fatal("replica stopped admitting its current primary's proposals after rejecting a NewView")
		}
	})
}
