package common_test

import (
	"testing"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// Windowed amortized attestation (Cfg.AttestWindow > 1), which only the
// primary-attests sequencing allows, checked against both FlexiTrust protocols
// through the flexiCases table. Where the protocols differ the table says
// how: what a backup does with a certified slot (flexiCase.acted), and
// whether the primary executes at propose time (flexiCase.speculative).

// flexiReplica is the surface the suite drives.
type flexiReplica interface {
	replica
	SlotDigest(types.SeqNum) (types.Digest, bool)
}

// flexiCase is one protocol under the windowed suite.
type flexiCase struct {
	name string
	mk   func(engine.Config) flexiReplica
	core func(engine.Protocol) *common.Core
	// acted counts the slots a backup has acted on once certified: Flexi-BFT
	// broadcasts a Prepare, Flexi-ZZ executes.
	acted func(*ptest.Env) int
	// speculative: the primary executes at propose time.
	speculative bool
}

var flexiCases = []flexiCase{{
	name:  "flexibft",
	mk:    func(cfg engine.Config) flexiReplica { return flexibft.New(cfg) },
	core:  func(p engine.Protocol) *common.Core { return &p.(*flexibft.Protocol).Core },
	acted: func(env *ptest.Env) int { return len(env.SentOfType(types.MsgPrepare)) },
}, {
	name:        "flexizz",
	mk:          func(cfg engine.Config) flexiReplica { return flexizz.New(cfg) },
	core:        func(p engine.Protocol) *common.Core { return &p.(*flexizz.Protocol).Core },
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

// windowedCfg enables windowed attestation over the n=4 base config.
func windowedCfg(window int) engine.Config {
	c := cfg4()
	c.AttestWindow = window
	return c
}

// windowedCluster builds four connected replicas of fc.
func windowedCluster(t *testing.T, fc flexiCase, cfg engine.Config) *ptest.Cluster {
	return ptest.NewCluster(t, cfg, func(cfg engine.Config) engine.Protocol { return fc.mk(cfg) })
}

// mintWindow spends one AppendF of tc on the chain fold of batches, laid from
// prev at slots start, start+1, …, and returns the certificate listing them.
func mintWindow(t *testing.T, tc trusted.Component, start types.SeqNum, prev types.Digest, batches ...*types.Batch) *crypto.WindowCert {
	t.Helper()
	wc := &crypto.WindowCert{View: 0, Start: start, Prev: prev}
	tip := prev
	for i, b := range batches {
		tip = crypto.ChainDigest(tip, b.Digest, start+types.SeqNum(i))
		wc.Digests = append(wc.Digests, b.Digest)
	}
	att, err := tc.AppendF(0, tip)
	if err != nil {
		t.Fatal(err)
	}
	wc.Att = att
	return wc
}

// windowProof is the view-change evidence binding b to seq under wc.
func windowProof(wc *crypto.WindowCert, seq types.SeqNum, b *types.Batch) *types.PreparedProof {
	return &types.PreparedProof{Preprepare: &types.Preprepare{View: wc.View, Seq: seq, Batch: b}, WC: wc.Encode()}
}

// wantExecuted fails unless replica r executed exactly slots 1..n in order.
func wantExecuted(t *testing.T, c *ptest.Cluster, r types.ReplicaID, n int, when string) {
	t.Helper()
	got := c.Envs[r].Executed
	if len(got) != n {
		t.Fatalf("replica %d executed %v %s, want %d slots", r, got, when, n)
	}
	for i, seq := range got {
		if seq != types.SeqNum(i+1) {
			t.Fatalf("replica %d executed out of order: %v", r, got)
		}
	}
}

// wantAccesses fails unless the primary spent want trusted-counter accesses
// and the backups none.
func wantAccesses(t *testing.T, c *ptest.Cluster, want uint64, when string) {
	t.Helper()
	if got := c.Envs[0].TC.Accesses(); got != want {
		t.Fatalf("primary TC accesses = %d %s, want %d", got, when, want)
	}
	for r := 1; r < len(c.Envs); r++ {
		if got := c.Envs[r].TC.Accesses(); got != 0 {
			t.Fatalf("backup %d TC accesses = %d, want 0 (primary-only)", r, got)
		}
	}
}

func TestWindowedOneAccessPerWindow(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		c := windowedCluster(t, fc, windowedCfg(4))
		for i := uint64(1); i <= 4; i++ {
			c.SubmitTo(0, request(1, i))
		}
		// Four slots committed (or speculatively executed) everywhere, in
		// order, for ONE access covering the whole window, primary-only.
		for r := types.ReplicaID(0); r < 4; r++ {
			wantExecuted(t, c, r, 4, "after a full window")
		}
		wantAccesses(t, c, 1, "for a full window")
	})
}

func TestWindowedSlotsWaitForCertificate(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		// Window of 8, two batches: the window stays open, so no backup may
		// act on either slot until the primary's flush timer fires. A
		// speculative primary built the chain it will attest, so it alone
		// executes right away.
		c := windowedCluster(t, fc, windowedCfg(8))
		c.SubmitTo(0, request(1, 1))
		c.SubmitTo(0, request(1, 2))
		atPrimary := 0
		if fc.speculative {
			atPrimary = 2
		}
		wantExecuted(t, c, 0, atPrimary, "at propose time")
		for r := types.ReplicaID(1); r < 4; r++ {
			wantExecuted(t, c, r, 0, "before the window was attested")
		}
		wantAccesses(t, c, 0, "with the window still open")
		// The primary armed the partial-window deadline; firing it flushes.
		flush := types.TimerID{Kind: types.TimerWindowFlush, View: 0}
		if _, ok := c.Envs[0].Timers[flush]; !ok {
			t.Fatal("primary did not arm the window-flush timer")
		}
		c.Protos[0].OnTimer(flush)
		for r := types.ReplicaID(0); r < 4; r++ {
			wantExecuted(t, c, r, 2, "after the flush")
		}
		wantAccesses(t, c, 1, "for the partial window")
	})
}

func TestWindowFlushTimerIgnoresStaleView(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		// A flush deadline armed during an earlier primaryship must not flush
		// the current view's partial window.
		c := windowedCluster(t, fc, windowedCfg(8))
		c.SubmitTo(0, request(1, 1))
		wantAccesses(t, c, 0, "with the window still open")
		c.Protos[0].OnTimer(types.TimerID{Kind: types.TimerWindowFlush, View: 1})
		wantAccesses(t, c, 0, "after a stale-view flush timer")
		c.Protos[0].OnTimer(types.TimerID{Kind: types.TimerWindowFlush, View: 0})
		wantAccesses(t, c, 1, "after the current-view flush timer")
	})
}

func TestWindowedChainBreakRejected(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		// A primary that reorders batches inside the window cannot produce a
		// certificate for the order it proposed: the chain fold over the
		// swapped digest list no longer matches the attested tip.
		p, env := replicaAt(t, fc, 1, windowedCfg(4))
		a, b := batchOf(1), batchOf(2)
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: a})
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 2, Batch: b})
		if got := fc.acted(env); got != 0 {
			t.Fatalf("acted on %d slots before any covering certificate", got)
		}
		// The counter attested the honest order A@1, B@2, but the certificate
		// claims the swapped order B@1, A@2.
		good := mintWindow(t, ptest.NewSiblingTC(env, 0), 1, crypto.WindowGenesis(0), a, b)
		forged := *good
		forged.Digests = []types.Digest{b.Digest, a.Digest}
		p.OnMessage(0, &types.WindowAttest{Replica: 0, Cert: forged.Encode()})
		if got := fc.acted(env); got != 0 {
			t.Fatalf("acted on %d slots under a chain-breaking certificate", got)
		}
		// The genuine certificate for the attested order releases both slots.
		p.OnMessage(0, &types.WindowAttest{Replica: 0, Cert: good.Encode()})
		if got := fc.acted(env); got != 2 {
			t.Fatalf("acted on %d slots after the genuine certificate, want 2", got)
		}
	})
}

func TestWindowedCertificateBeforePreprepare(t *testing.T) {
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		// Delivery may reorder the WindowAttest ahead of the preprepares it
		// covers; the certified digests release slots as proposals arrive.
		p, env := replicaAt(t, fc, 1, windowedCfg(2))
		a, b := batchOf(1), batchOf(2)
		wc := mintWindow(t, ptest.NewSiblingTC(env, 0), 1, crypto.WindowGenesis(0), a, b)
		p.OnMessage(0, &types.WindowAttest{Replica: 0, Cert: wc.Encode()})
		// A preprepare whose digest contradicts the certified chain is ignored.
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: b})
		if got := fc.acted(env); got != 0 {
			t.Fatal("acted on a preprepare contradicting the certified chain")
		}
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 1, Batch: a})
		p.OnMessage(0, &types.Preprepare{View: 0, Seq: 2, Batch: b})
		if got := fc.acted(env); got != 2 {
			t.Fatalf("acted on %d slots, want 2 (certificate arrived first)", got)
		}
	})
}

// TestWindowProofSets: what a ViewChange's windowed evidence must look like
// to the validator (replica 1, view 0, counter incarnation 0).
func TestWindowProofSets(t *testing.T) {
	a, x := batchOf(1), batchOf(99)
	g := crypto.WindowGenesis(0)
	cases := []struct {
		name   string
		want   bool
		proofs func(t *testing.T, env *ptest.Env) []*types.PreparedProof
	}{
		// Any byzantine replica can AppendF an arbitrary chain on its own
		// counter; only the view primary's attestor proves proposal order.
		{"minted by a non-primary's counter", false, func(t *testing.T, env *ptest.Env) []*types.PreparedProof {
			return []*types.PreparedProof{windowProof(mintWindow(t, ptest.NewSiblingTC(env, 2), 1, g, a), 1, a)}
		}},
		// Counter values restart at each Create, so only certificates under
		// the epoch this replica recorded for the view are comparable.
		{"minted under a stale counter incarnation", false, func(t *testing.T, env *ptest.Env) []*types.PreparedProof {
			tc := ptest.NewSiblingTC(env, 0)
			if _, err := tc.Create(0, 0); err != nil {
				t.Fatal(err)
			}
			wc := mintWindow(t, tc, 1, g, a)
			if wc.Att.Epoch == 0 {
				t.Fatal("Create did not advance the epoch; the case is vacuous")
			}
			return []*types.PreparedProof{windowProof(wc, 1, a)}
		}},
		// The canonical certificate plus a fork re-anchored at the same chain
		// position: each verifies in isolation, the set breaks the
		// Start/Prev/value progression.
		{"spanning a forked chain", false, func(t *testing.T, env *ptest.Env) []*types.PreparedProof {
			tc := ptest.NewSiblingTC(env, 0)
			return []*types.PreparedProof{
				windowProof(mintWindow(t, tc, 1, g, a), 1, a),
				windowProof(mintWindow(t, tc, 1, g, x), 1, x),
			}
		}},
		{"the canonical segment alone", true, func(t *testing.T, env *ptest.Env) []*types.PreparedProof {
			return []*types.PreparedProof{windowProof(mintWindow(t, ptest.NewSiblingTC(env, 0), 1, g, a), 1, a)}
		}},
	}
	forEachFlexi(t, func(t *testing.T, fc flexiCase) {
		for _, tc := range cases {
			p, env := replicaAt(t, fc, 1, windowedCfg(2))
			vc := &types.ViewChange{Replica: 2, NewView: 1, Prepared: tc.proofs(t, env)}
			if got := p.ValidateViewChange(vc); got != tc.want {
				t.Errorf("window proof set %s: accepted = %v, want %v", tc.name, got, tc.want)
			}
		}
	})
}

// TestWindowedViewChange: slots 1 and 2 commit (or execute) under the
// canonical window certificate (counter value 1) and must survive into view
// 1, where windowed progress continues under the fresh incarnation. In the
// forged row the deposed primary's re-anchored certificate (value 2, slot 1 →
// X) arrives as view-change evidence first; per-slot resolution takes the
// LOWEST covering counter value, so the settled binding wins and no honest
// replica rebinds or rolls back.
func TestWindowedViewChange(t *testing.T) {
	for _, forge := range []bool{false, true} {
		forEachFlexi(t, func(t *testing.T, fc flexiCase) {
			cfg := windowedCfg(2)
			cfg.ViewChangeTimeout = 0
			c := windowedCluster(t, fc, cfg)
			c.SubmitTo(0, request(1, 1))
			c.SubmitTo(0, request(1, 2))
			digestA, ok := c.Protos[1].(flexiReplica).SlotDigest(1)
			if !ok {
				t.Fatal("slot 1 never settled")
			}
			state := c.Envs[2].Store.StateDigest()
			x := batchOf(99)
			if forge {
				// The deposed primary says nothing else: its honest twin's own
				// ViewChange would overwrite the forged vote in every tally.
				for r := types.ReplicaID(1); r < 4; r++ {
					c.Sever(0, r)
				}
				// The real primary's counter, next value, re-anchored at genesis.
				wc := mintWindow(t, c.Envs[0].TC, 1, crypto.WindowGenesis(0), x)
				c.Protos[1].OnMessage(0, &types.ViewChange{Replica: 0, NewView: 1, Sig: []byte("sig"),
					Prepared: []*types.PreparedProof{windowProof(wc, 1, x)}})
			} else {
				c.Protos[2].(flexiReplica).SuspectPrimary()
			}
			// With this second vote replica 1 joins at f+1 and installs view 1.
			c.Protos[3].(flexiReplica).SuspectPrimary()
			if got := fc.core(c.Protos[1]).View; got != 1 {
				t.Fatalf("forge=%v: replica 1 view = %d, want 1", forge, got)
			}
			for _, r := range []int{1, 2, 3} {
				if got, ok := c.Protos[r].(flexiReplica).SlotDigest(1); !ok || got != digestA {
					t.Fatalf("forge=%v: replica %d slot 1 = %v (held %v), want the settled %v (forgery %v)",
						forge, r, got, ok, digestA, x.Digest)
				}
				if c.Envs[r].Store.StateDigest() != state {
					t.Fatalf("forge=%v: replica %d lost settled state (or rolled back) across the view change", forge, r)
				}
			}
			c.SubmitTo(1, request(1, 3))
			c.SubmitTo(1, request(1, 4))
			for _, r := range []int{1, 2, 3} {
				if got := c.Envs[r].Executed; len(got) == 0 || got[len(got)-1] != 4 {
					t.Fatalf("forge=%v: replica %d executed %v, want progress through seq 4 in view 1", forge, r, got)
				}
			}
		})
	}
}
