package common_test

import (
	"slices"
	"testing"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// One conformance table over every registry row: what every protocol must do
// with a proposal, a view-change report and a NewView — whatever sequencing and
// slot action it is made of — is checked here once, each test saying which
// protocols it applies to. Protocol-specific behaviour (quorum sizes,
// commit-certificate handling, TrustPolicy, chained history, sequential ack
// gating, each package's view-change smoke test) stays in the protocol
// packages' own tests; the windowed-attestation suite, which only the
// FlexiTrust pair can run, is window_test.go.

// replica is the surface the table drives.
type replica interface {
	engine.Protocol
	common.Hooks
	SuspectPrimary()
}

// protocolCase is one protocol under the table.
type protocolCase struct {
	// short names the subtest; meta.Name is the evaluation's name.
	short string
	meta  engine.Meta
	mk    func(engine.Config) replica
}

// allProtocols is the registry's rows, each subtest named by the row's
// matching key (pbft, ..., opbftea, ..., oflexizz).
var allProtocols = func() []protocolCase {
	var cases []protocolCase
	for _, v := range protocols.All() {
		cases = append(cases, protocolCase{protocols.Key(v.Meta.Name), v.Meta,
			func(c engine.Config) replica { return v.New(c).(replica) }})
	}
	return cases
}()

// attested reports whether the protocol binds batches to slots with a trusted
// component (everything but PBFT and Zyzzyva).
func (pc protocolCase) attested() bool { return pc.meta.TrustedAbstraction != "none" }

// windowed reports whether the protocol honours Cfg.AttestWindow.
func (pc protocolCase) windowed() bool { return pc.meta.PrimaryOnlyTC }

// cfg is the protocol's configuration at fault threshold f, one request per
// batch.
func (pc protocolCase) cfg(f int) engine.Config {
	c := engine.DefaultConfig(pc.meta.Replicas(f), f)
	c.BatchSize = 1
	c.Parallel = pc.meta.OutOfOrder
	return c
}

// protocol adapts mk to the constructor ptest.NewCluster takes.
func (pc protocolCase) protocol(c engine.Config) engine.Protocol { return pc.mk(c) }

// forEachProtocol runs fn as a subtest for every protocol applies admits (nil:
// every row).
func forEachProtocol(t *testing.T, applies func(protocolCase) bool, fn func(t *testing.T, pc protocolCase)) {
	for _, pc := range allProtocols {
		if applies == nil || applies(pc) {
			t.Run(pc.short, func(t *testing.T) { fn(t, pc) })
		}
	}
}

// at builds and initialises one replica of pc on a recording Env.
func (pc protocolCase) at(t *testing.T, id types.ReplicaID, cfg engine.Config) (replica, *ptest.Env) {
	env := ptest.NewEnv(t, id, cfg)
	p := pc.mk(cfg)
	p.Init(env)
	return p, env
}

// acted counts what a backup did with the proposals it admitted: the Prepares
// it sent (votes, or a sequential pipeline's acknowledgements) and the slots
// it executed.
func acted(env *ptest.Env) int { return len(env.SentOfType(types.MsgPrepare)) + len(env.Executed) }

// batchOf builds a one-request batch with its real digest.
func batchOf(reqNo uint64) *types.Batch { return ptest.Batch(request(1, reqNo)) }

// mint makes replica id's trusted component bind d to the next value of
// counter q, as its host would for a proposal: Append(q, ⊥, d) and AppendF(q,
// d) attest the same statement.
func mint(t *testing.T, env *ptest.Env, id types.ReplicaID, q uint32, d types.Digest) *types.Attestation {
	t.Helper()
	att, err := ptest.NewSiblingTC(env, id).AppendF(q, d)
	if err != nil {
		t.Fatal(err)
	}
	return att
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
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		windows := []int{0}
		if pc.windowed() {
			windows = []int{0, 2}
		}
		for _, window := range windows {
			cfg := pc.cfg(1)
			cfg.AttestWindow = window
			p, env := pc.at(t, 1, cfg)
			att := mint(t, env, 0, 0, types.ZeroDigest)
			bare := overWire(t, &types.Preprepare{Seq: types.SeqNum(att.Value), Attest: att})
			if bare.Batch != nil {
				t.Fatal("codec invented a batch; the test is vacuous")
			}

			// Road 1, live: with its attestation (per-batch shape) and without
			// (unattested and windowed shape), fresh and as a second proposal
			// for a slot that is taken.
			p.OnMessage(0, bare)
			p.OnMessage(0, overWire(t, &types.Preprepare{Seq: 1}))
			if acted(env) != 0 {
				t.Fatalf("window=%d: acted on a proposal that has no batch", window)
			}
			taken, tenv := pc.at(t, 1, cfg)
			b := batchOf(1)
			taken.OnMessage(0, &types.Preprepare{Seq: 1, Batch: b, Attest: mint(t, tenv, 0, 0, b.Digest)})
			before := acted(tenv)
			taken.OnMessage(0, bare)
			taken.OnMessage(0, overWire(t, &types.Preprepare{Seq: 1}))
			if acted(tenv) != before {
				t.Fatalf("window=%d: acted on a batchless proposal for a taken slot", window)
			}

			// Road 2, view-change report: rejected on receipt, and skipped by a
			// new primary that finds one in its quorum anyway.
			last := types.ReplicaID(cfg.N - 1)
			qc := crypto.AssembleQC(0, 1, types.ZeroDigest, types.ZeroDigest, cfg.N, []types.ReplicaID{0, 1, 2})
			reports := []*types.ViewChange{
				{Replica: last, NewView: 1, Prepared: []*types.PreparedProof{{Preprepare: bare, QC: qc.Encode()}}},
				{Replica: last, NewView: 1, Preprepares: []*types.Preprepare{bare}},
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
			backup, benv := pc.at(t, 2, cfg)
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

// TestProposalMustBindItsOwnSlot: the primary's trusted component mints one
// attestation per counter value, and that is all that stops it proposing two
// batches for one sequence number — so a backup must take a proposal's slot
// from the attested value, never from the message. Here the primary binds A
// at value 1 and B at value 2 and claims sequence number 1 for both.
func TestProposalMustBindItsOwnSlot(t *testing.T) {
	forEachProtocol(t, protocolCase.attested, func(t *testing.T, pc protocolCase) {
		cfg := pc.cfg(1)
		a, b := batchOf(1), batchOf(2)
		first, fenv := pc.at(t, 1, cfg)
		second, senv := pc.at(t, 2, cfg)
		tc := ptest.NewSiblingTC(fenv, 0) // both backups verify against the same authority seed
		attA, errA := tc.AppendF(0, a.Digest)
		attB, errB := tc.AppendF(0, b.Digest)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		first.OnMessage(0, &types.Preprepare{Seq: 1, Batch: a, Attest: attA})
		second.OnMessage(0, &types.Preprepare{Seq: 1, Batch: b, Attest: attB})
		if acted(fenv) == 0 {
			t.Fatal("the genuine proposal for slot 1 was not admitted")
		}
		if acted(senv) != 0 {
			t.Fatal("two backups admitted different batches for sequence number 1 of one view")
		}
	})
}

// TestProposalContentsMustHashToItsDigest: a primary attests, signs or votes
// on a batch digest, and the codec decodes that digest from the frame — so a
// backup that does not recompute it lets a primary hand two backups different
// contents, here the same two requests in the other order, under one attested
// digest. The backup given the reordered batch must refuse it; the one given
// the batch the digest names must act on it.
func TestProposalContentsMustHashToItsDigest(t *testing.T) {
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		cfg := pc.cfg(1)
		cfg.BatchSize = 2
		a, b := request(1, 1), request(2, 1)
		genuine := ptest.Batch(a, b)
		reordered := &types.Batch{Requests: []*types.ClientRequest{b, a}, Digest: genuine.Digest}
		honest, henv := pc.at(t, 1, cfg)
		fooled, fenv := pc.at(t, 2, cfg)
		var att *types.Attestation
		if pc.attested() {
			att = mint(t, henv, 0, 0, genuine.Digest) // one attestation, shown to both
		}
		honest.OnMessage(0, &types.Preprepare{Seq: 1, Batch: genuine, Attest: att})
		fooled.OnMessage(0, &types.Preprepare{Seq: 1, Batch: reordered, Attest: att})
		if acted(henv) == 0 {
			t.Fatal("the proposal whose contents hash to its digest was not admitted")
		}
		if acted(fenv) != 0 {
			t.Fatal("a backup acted on reordered contents under the attested digest")
		}
	})
}

// TestForgedRequestRefusedOnEveryRoad: a request whose authenticator entry
// fails at a replica reaches neither that replica's hold, nor its batcher, nor
// a vote, nor execution there, whichever road it takes: from its client,
// forwarded, resent, inside a live proposal, inside a view-change report at
// the incoming primary, or as a NewView proposal. Each road also runs with
// the request genuine, where it must go through.
func TestForgedRequestRefusedOnEveryRoad(t *testing.T) {
	const forger = 9
	req := request(forger, 1)
	b := ptest.Batch(req)
	forgedAt := func(env *ptest.Env, forged bool) {
		if forged {
			env.Forged = map[types.ClientID]bool{forger: true}
		}
	}
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		cfg := pc.cfg(1)
		for _, forged := range []bool{true, false} {
			// Loose, at the primary and at a backup: nothing is proposed,
			// forwarded or timed.
			primary, penv := pc.at(t, 0, cfg)
			forgedAt(penv, forged)
			primary.OnRequest(req)
			primary.OnMessage(2, &types.Forward{Replica: 2, Request: req})
			primary.OnMessage(-1, &types.ClientResend{Request: req})
			if proposed := len(penv.SentOfType(types.MsgPreprepare)) > 0 || len(penv.Executed) > 0; proposed == forged {
				t.Fatalf("forged=%v: primary proposed the request = %v", forged, proposed)
			}
			backup, benv := pc.at(t, 1, cfg)
			forgedAt(benv, forged)
			timers := len(benv.Timers)
			backup.OnRequest(req)
			backup.OnMessage(-1, &types.ClientResend{Request: req})
			if routed := len(benv.SentOfType(types.MsgForward)) > 0 || len(benv.Timers) > timers; routed == forged {
				t.Fatalf("forged=%v: backup forwarded the request = %v", forged, routed)
			}

			// Inside a live proposal.
			voter, venv := pc.at(t, 1, cfg)
			forgedAt(venv, forged)
			var att *types.Attestation
			if pc.attested() {
				att = mint(t, venv, 0, 0, b.Digest)
			}
			voter.OnMessage(0, &types.Preprepare{Seq: 1, Batch: b, Attest: att})
			if (acted(venv) != 0) == forged {
				t.Fatalf("forged=%v: backup acted on the proposal = %v", forged, acted(venv) != 0)
			}

			// Inside a view-change report at the incoming primary of view 1:
			// the report's ViewChange does not count toward its quorum.
			next, nenv := pc.at(t, 1, cfg)
			forgedAt(nenv, forged)
			pp := &types.Preprepare{Seq: 1, Batch: b}
			if pc.attested() {
				pp.Attest = mint(t, nenv, 0, 0, b.Digest)
			}
			qc := crypto.AssembleQC(0, 1, b.Digest, types.ZeroDigest, cfg.N, []types.ReplicaID{0, 1, 2})
			report := &types.ViewChange{Replica: 2, NewView: 1}
			if pc.meta.Speculative {
				report.Preprepares = []*types.Preprepare{pp}
			} else {
				report.Prepared = []*types.PreparedProof{{Preprepare: pp, QC: qc.Encode()}}
			}
			next.SuspectPrimary()
			next.OnMessage(2, report)
			for r := 0; r < cfg.N; r++ {
				if r != 1 && r != 2 {
					next.OnMessage(types.ReplicaID(r), &types.ViewChange{Replica: types.ReplicaID(r), NewView: 1})
				}
			}
			reproposed := false
			for _, s := range nenv.SentOfType(types.MsgNewView) {
				for _, p := range s.Msg.(*types.NewView).Proposals {
					reproposed = reproposed || (p.Batch != nil && p.Batch.Digest == b.Digest)
				}
			}
			if reproposed == forged {
				t.Fatalf("forged=%v: incoming primary re-proposed the reported batch = %v", forged, reproposed)
			}

			// As a NewView proposal at a backup of view 1.
			installer, ienv := pc.at(t, 2, cfg)
			forgedAt(ienv, forged)
			newTC := ptest.NewSiblingTC(ienv, 1)
			init, err := newTC.Create(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			reatt, err := newTC.AppendF(0, b.Digest)
			if err != nil {
				t.Fatal(err)
			}
			nv := &types.NewView{View: 1, CounterInit: init,
				Proposals: []*types.Preprepare{{View: 1, Seq: types.SeqNum(reatt.Value), Batch: b, Attest: reatt}}}
			if installer.ProcessNewView(nv) == forged {
				t.Fatalf("forged=%v: backup installed the NewView = %v", forged, !forged)
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
	const backup = 2 // a replica that is primary of neither view 0 nor view 1
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
		{name: "a backup's own counter", attestor: backup, seq: 1, digest: 99},
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
			return &types.ViewChange{Replica: backup, NewView: 1, Prepared: []*types.PreparedProof{{Preprepare: pp}}}
		}},
		{"bare", func(pp *types.Preprepare) *types.ViewChange {
			return &types.ViewChange{Replica: backup, NewView: 1, Preprepares: []*types.Preprepare{pp}}
		}},
	}
	forEachProtocol(t, protocolCase.attested, func(t *testing.T, pc protocolCase) {
		for _, tc := range cases {
			for _, shape := range shapes {
				p, env := pc.at(t, 1, pc.cfg(1)) // view 0, incarnation 0; primary of view 1
				mintTC := ptest.NewSiblingTC(env, tc.attestor)
				if tc.reCreate {
					if _, err := mintTC.Create(tc.counter, 0); err != nil {
						t.Fatal(err)
					}
				}
				att, err := mintTC.AppendF(tc.counter, batchOf(tc.digest).Digest)
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
	forEachProtocol(t, protocolCase.attested, func(t *testing.T, pc protocolCase) {
		p, env := pc.at(t, 2, pc.cfg(1))
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
		if acted(env) != 0 {
			t.Fatal("acted on a proposal of the rejected NewView")
		}
		// The view-0 primary's next proposal is still admitted.
		b := batchOf(3)
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b, Attest: mint(t, env, 0, 0, b.Digest)})
		if acted(env) == 0 {
			t.Fatal("replica stopped admitting its current primary's proposals after rejecting a NewView")
		}
	})
}

// write builds a client's first request: set key to value.
func write(client types.ClientID, key uint64, value string) *types.ClientRequest {
	op := &kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: []byte(value)}
	return &types.ClientRequest{Client: client, ReqNo: 1, Op: op.Encode()}
}

// TestNewViewNeitherStrandsNorForksTheReplicaAhead: at f = 2, replica 2 alone
// receives view 0's slot 1 (request A) before the primary dies; the new
// primary's quorum forms without replica 2's report, so view 1 knows nothing
// of that slot and puts request B there; then A is submitted again. Every
// live replica, replica 2 included, must execute B then A and end up with the
// same records. Replica 2 is the one at risk: it must let go of the stale
// slot (or it refuses B as a duplicate and never executes again), undo A where
// it executed speculatively, and then execute A when it comes back (which it
// skips as "already executed" if the rollback left its response cache
// behind). Records are compared by reading them: StateDigest chains batch
// digests and cannot see a request that was skipped inside its batch.
func TestNewViewNeitherStrandsNorForksTheReplicaAhead(t *testing.T) {
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		cfg := pc.cfg(2)
		c := &failoverCluster{Cluster: ptest.NewCluster(t, cfg, pc.protocol), t: t}
		a, b := write(1, 1, "A"), write(2, 2, "B")
		const ahead = 2

		// View 0: the proposal for A reaches replica 2 only, and nothing
		// replica 2 says reaches anyone.
		for r := 1; r < cfg.N; r++ {
			if r != ahead {
				c.Sever(0, types.ReplicaID(r))
			}
		}
		c.mute(ahead)
		c.step(func() { c.SubmitTo(0, a) })

		// The primary dies. Everyone but replica 2 votes it out; replica 2
		// joins them, but its vote — the only report of slot 1 — stays lost
		// until view 1 is installed.
		clear(c.Cut)
		c.crash(0)
		c.Sever(ahead, 1)
		c.step(func() {
			for r := 1; r < cfg.N; r++ {
				if r != ahead {
					c.Protos[r].(replica).SuspectPrimary()
				}
			}
		})
		live := backups(cfg.N)
		for _, r := range live {
			if st := c.status(r); st.View != 1 || st.InViewChange {
				t.Fatalf("replica %d: view %d (changing: %v), want view 1 installed", r, st.View, st.InViewChange)
			}
		}
		clear(c.Cut)
		c.crash(0)

		// View 1: B takes slot 1, then A is submitted again.
		c.step(func() { c.SubmitTo(1, b) })
		c.step(func() { c.SubmitTo(1, a) })
		want := []types.RequestKey{b.Key(), a.Key()}
		for _, r := range live {
			env := c.Envs[r]
			if !slices.Equal(env.Requests, want) {
				t.Fatalf("replica %d executed %v (slots %v), want B then A: %v", r, env.Requests, env.Executed, want)
			}
			for key, value := range map[uint64]string{1: "A", 2: "B"} {
				read := &kvstore.Op{Code: kvstore.OpRead, Key: key}
				if got := string(env.Store.Apply(read.Encode())); got != value {
					t.Fatalf("replica %d reads %q at key %d, want %q", r, got, key, value)
				}
			}
		}
	})
}

// TestViewChangeOutcomeIgnoresVoteOrder: the vote set reaches BuildNewView
// through a map. Two reports name slot 1 — an old view's proposal and the
// re-proposal of a later view that superseded it — and the later one must win
// whichever order they are handed over in.
func TestViewChangeOutcomeIgnoresVoteOrder(t *testing.T) {
	forEachProtocol(t, protocolCase.attested, func(t *testing.T, pc protocolCase) {
		for _, flip := range []bool{false, true} {
			cfg := pc.cfg(1)
			p, env := pc.at(t, 2, cfg) // primary of view 2
			old, superseding := batchOf(1), batchOf(2)
			// View 0's primary bound the old batch; view 1's primary Create()d a
			// fresh incarnation and bound the superseding one at the same slot.
			tc1 := ptest.NewSiblingTC(env, 1)
			if _, err := tc1.Create(0, 0); err != nil {
				t.Fatal(err)
			}
			att1, err := tc1.AppendF(0, superseding.Digest)
			if err != nil {
				t.Fatal(err)
			}
			// Each report travels in the shape the protocol itself reports in.
			report := func(from types.ReplicaID, pp *types.Preprepare) *types.ViewChange {
				if pc.meta.Speculative {
					return &types.ViewChange{Replica: from, NewView: 2, Preprepares: []*types.Preprepare{pp}}
				}
				return &types.ViewChange{Replica: from, NewView: 2, Prepared: []*types.PreparedProof{{Preprepare: pp}}}
			}
			vcs := []*types.ViewChange{
				report(0, &types.Preprepare{View: 0, Seq: 1, Batch: old, Attest: mint(t, env, 0, 0, old.Digest)}),
				report(1, &types.Preprepare{View: 1, Seq: 1, Batch: superseding, Attest: att1}),
			}
			if flip {
				slices.Reverse(vcs)
			}
			nv := p.BuildNewView(2, vcs)
			if len(nv.Proposals) != 1 || nv.Proposals[0].Batch.Digest != superseding.Digest {
				t.Fatalf("flip=%v: re-proposed %d slots and not the later view's batch at slot 1", flip, len(nv.Proposals))
			}
		}
	})
}

// TestStragglerAdoptsThroughStableCheckpoint: on the rows where only the
// primary attests, a backup whose attestation checks are still in its verify
// pool when the checkpoint covering them goes stable must still execute those
// slots once the checks finish, then execute and vote the next checkpoint —
// not drop them because they are at or below the stable checkpoint and stall
// behind the gap for good.
func TestStragglerAdoptsThroughStableCheckpoint(t *testing.T) {
	forEachProtocol(t, protocolCase.windowed, func(t *testing.T, pc protocolCase) {
		cfg := pc.cfg(1)
		cfg.CheckpointEvery = 2
		c := &failoverCluster{Cluster: ptest.NewCluster(t, cfg, pc.protocol), t: t}
		const straggler = 3
		env := c.Envs[straggler]
		env.Hold = true
		for key := uint64(1); key <= 2; key++ {
			c.step(func() { c.SubmitTo(0, write(types.ClientID(key), key, "v")) })
		}
		if len(env.Executed) != 0 {
			t.Fatalf("straggler executed %v with its verifications held", env.Executed)
		}
		c.step(env.Release)
		for key := uint64(3); key <= 4; key++ {
			c.step(func() { c.SubmitTo(0, write(types.ClientID(key), key, "v")) })
		}
		if want := []types.SeqNum{1, 2, 3, 4}; !slices.Equal(env.Executed, want) {
			t.Fatalf("straggler executed %v, want %v", env.Executed, want)
		}
		voted := false
		for _, s := range env.SentOfType(types.MsgCheckpoint) {
			voted = voted || s.Msg.(*types.Checkpoint).Seq == 4
		}
		if !voted {
			t.Fatal("straggler never voted the checkpoint after the one it fell behind")
		}
	})
}
