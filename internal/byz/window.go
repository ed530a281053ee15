// Windowed-attestation attacks: a byzantine primary trying to reorder or
// forge batches inside a single amortized attestation window
// (engine.Config.AttestWindow > 1; see internal/protocols/common/window.go).
package byz

import (
	"encoding/binary"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// WindowReorderPrimary is a byzantine primary attacking windowed amortized
// attestation: it preprepares batch A at sequence 1 and batch B at sequence 2
// — the order it shows every replica — but spends its single trusted-counter
// access on the chain fold of the SWAPPED order [B@1, A@2] and publishes the
// covering WindowCert for that forged chain.
//
// The certificate itself verifies: its fold matches the genuinely attested
// tip, and the attestation is a real mint. What fails is the slot→digest
// binding — honest replicas admit the certificate, find that neither
// delivered preprepare carries the digest the chain certifies for its slot,
// and withhold every vote. Nothing commits, nothing executes, and because
// AppendF already spent counter value 1 on the forged fold, no second
// certificate for the same chain position can ever exist.
//
// With ForgeCert set the attacker instead attests the honest order but lies
// in the certificate's digest list; then the fold no longer matches the
// attested tip and VerifyWC rejects the certificate outright — the stashed
// preprepares never release.
type WindowReorderPrimary struct {
	OpA, OpB []byte
	// ForgeCert publishes a certificate whose digest list contradicts the
	// attested tip (fails the chain check) instead of an honestly-attested
	// forged order (fails slot→digest matching).
	ForgeCert bool
	// LieToAudit additionally self-reports a window record claiming the
	// honest chain tip. The access it actually spent attested the swapped
	// fold, so the audit's forged-range rule must flag the mismatch.
	LieToAudit bool
	// Cfg carries the engine config (Observer, TrustedNamespace) for
	// LieToAudit; set it from the cluster's protocol constructor.
	Cfg engine.Config

	env   engine.Env
	fired bool
	// CertSent records that the attack ran to completion.
	CertSent bool
}

// Init implements engine.Protocol.
func (r *WindowReorderPrimary) Init(env engine.Env) { r.env = env }

// OnRequest implements engine.Protocol: the first client request triggers
// the scripted attack.
func (r *WindowReorderPrimary) OnRequest(req *types.ClientRequest) {
	if r.fired {
		return
	}
	r.fired = true

	reqA := &types.ClientRequest{Client: req.Client, ReqNo: req.ReqNo, Op: r.OpA}
	batchA := &types.Batch{Requests: []*types.ClientRequest{reqA}}
	batchA.Digest = crypto.BatchDigest(batchA.Requests)
	reqB := &types.ClientRequest{Client: req.Client, ReqNo: req.ReqNo + 1000, Op: r.OpB}
	batchB := &types.Batch{Requests: []*types.ClientRequest{reqB}}
	batchB.Digest = crypto.BatchDigest(batchB.Requests)

	// Preprepare the honest order to everyone. Windowed proposals carry no
	// per-batch attestation: replicas stash them and hold their votes for
	// the covering certificate.
	r.env.Broadcast(&types.Preprepare{View: 0, Seq: 1, Batch: batchA})
	r.env.Broadcast(&types.Preprepare{View: 0, Seq: 2, Batch: batchB})

	genesis := crypto.WindowGenesis(0)
	honestTip := crypto.ChainDigest(crypto.ChainDigest(genesis, batchA.Digest, 1), batchB.Digest, 2)
	forgedTip := crypto.ChainDigest(crypto.ChainDigest(genesis, batchB.Digest, 1), batchA.Digest, 2)

	attested := forgedTip
	if r.ForgeCert {
		attested = honestTip
	}
	att, err := r.env.Trusted().AppendF(0, attested)
	if err != nil {
		panic("byz: window AppendF failed: " + err.Error())
	}
	wc := &crypto.WindowCert{
		View:    0,
		Start:   1,
		Prev:    genesis,
		Digests: []types.Digest{batchB.Digest, batchA.Digest}, // the swap
		Att:     att,
	}
	r.env.Broadcast(&types.WindowAttest{Replica: r.env.ID(), Cert: wc.Encode()})
	r.CertSent = true

	if r.LieToAudit {
		// Claim in telemetry that the window attested the honest order.
		r.Cfg.Observer.Audit().Window(obs.WindowRecord{
			Host:      r.env.ID(),
			Namespace: r.Cfg.TrustedNamespace,
			Counter:   0,
			Epoch:     att.Epoch,
			Value:     att.Value,
			Start:     1,
			End:       2,
			Digest:    honestTip,
		})
	}
}

// OnMessage implements engine.Protocol: the attacker ignores the protocol.
func (r *WindowReorderPrimary) OnMessage(types.ReplicaID, types.Message) {}

// OnTimer implements engine.Protocol.
func (r *WindowReorderPrimary) OnTimer(types.TimerID) {}

// WindowViewChangeForger is a byzantine primary attacking windowed
// attestation at VIEW-CHANGE time. It first runs an honest window — batch A
// at slot 1, batch B at slot 2, one AppendF, the covering certificate
// broadcast — so honest replicas commit (or speculatively execute) both
// slots. Then it burns a SECOND counter access on a forged chain re-anchored
// at the view's genesis binding slot 1 to a different batch X, wraps it in a
// genuinely-signed ViewChange for view 1, broadcasts that, and goes silent
// so the stalled backups depose it.
//
// Every individual check on the forged proof passes: the certificate's fold
// matches its genuinely attested tip, the attestation is a real mint by the
// view-0 primary's trusted component under the current epoch, and the
// ViewChange signature is authentic. What gives it away is the counter
// value: the canonical certificate for slot 1 spent value 1, so the forgery
// carries value 2 — and the view-change slot resolution takes the LOWEST
// covering value per slot. The new primary must re-propose A at slot 1, and
// every backup cross-checks the re-proposals against the same resolution,
// so the committed binding survives.
type WindowViewChangeForger struct {
	// OpA and OpB fill the honestly-attested window; OpX is the conflicting
	// payload the forged certificate binds to slot 1.
	OpA, OpB, OpX []byte

	env   engine.Env
	fired bool
	// CertSent records that the honest window's certificate went out;
	// ForgedVCSent that the conflicting view-change proof followed it.
	CertSent, ForgedVCSent bool
	// BatchA and BatchX record the competing digests bound to slot 1 (the
	// honestly-attested one and the forgery), for test assertions.
	BatchA, BatchX types.Digest
}

// Init implements engine.Protocol.
func (r *WindowViewChangeForger) Init(env engine.Env) { r.env = env }

// OnRequest implements engine.Protocol: the first client request triggers
// the scripted attack.
func (r *WindowViewChangeForger) OnRequest(req *types.ClientRequest) {
	if r.fired {
		return
	}
	r.fired = true

	mkBatch := func(client types.ClientID, reqNo uint64, op []byte) *types.Batch {
		b := &types.Batch{Requests: []*types.ClientRequest{
			{Client: client, ReqNo: reqNo, Op: op},
		}}
		b.Digest = crypto.BatchDigest(b.Requests)
		return b
	}
	// Slot 1 answers the triggering client request; slots 2 and the forged
	// binding use a phantom client so the honest replicas' response caches
	// never learn a high request number for the real client (which would
	// make them silently drop its retries as already-executed and mask the
	// primary's silence from the stall detector).
	const phantom = types.ClientID(0xBEEF)
	batchA := mkBatch(req.Client, req.ReqNo, r.OpA)
	batchB := mkBatch(phantom, 1, r.OpB)
	batchX := mkBatch(phantom, 2, r.OpX)
	r.BatchA, r.BatchX = batchA.Digest, batchX.Digest

	// Phase 1, honest: propose A@1, B@2 and attest the covering window.
	r.env.Broadcast(&types.Preprepare{View: 0, Seq: 1, Batch: batchA})
	r.env.Broadcast(&types.Preprepare{View: 0, Seq: 2, Batch: batchB})
	genesis := crypto.WindowGenesis(0)
	tip := crypto.ChainDigest(crypto.ChainDigest(genesis, batchA.Digest, 1), batchB.Digest, 2)
	att, err := r.env.Trusted().AppendF(0, tip)
	if err != nil {
		panic("byz: honest window AppendF failed: " + err.Error())
	}
	wc := &crypto.WindowCert{
		View: 0, Start: 1, Prev: genesis,
		Digests: []types.Digest{batchA.Digest, batchB.Digest},
		Att:     att,
	}
	r.env.Broadcast(&types.WindowAttest{Replica: r.env.ID(), Cert: wc.Encode()})
	r.CertSent = true

	// Phase 2, forged: a second genuine attestation (the counter's NEXT
	// value) over a chain re-anchored at genesis that binds slot 1 to X,
	// presented as view-change evidence. In isolation the proof verifies.
	forgedAtt, err := r.env.Trusted().AppendF(0, crypto.ChainDigest(genesis, batchX.Digest, 1))
	if err != nil {
		panic("byz: forged window AppendF failed: " + err.Error())
	}
	forged := &crypto.WindowCert{
		View: 0, Start: 1, Prev: genesis,
		Digests: []types.Digest{batchX.Digest},
		Att:     forgedAtt,
	}
	vc := &types.ViewChange{
		Replica: r.env.ID(),
		NewView: 1,
		Prepared: []*types.PreparedProof{{
			Preprepare: &types.Preprepare{View: 0, Seq: 1, Batch: batchX},
			WC:         forged.Encode(),
		}},
	}
	signViewChange(r.env, vc)
	r.env.Broadcast(vc)
	r.ForgedVCSent = true
	// Silence from here on: the stalled backups depose this primary.
}

// signViewChange signs a forged ViewChange the way an honest replica would,
// so only its evidence can give it away. The signed content of a ViewChange
// without a checkpoint is replica id and target view, big-endian
// (common.viewChangePayload).
func signViewChange(env engine.Env, vc *types.ViewChange) {
	payload := binary.BigEndian.AppendUint32(nil, uint32(vc.Replica))
	payload = binary.BigEndian.AppendUint64(payload, uint64(vc.NewView))
	vc.Sig = env.Crypto().Sign(payload)
}

// OnMessage implements engine.Protocol: the attacker ignores the protocol.
func (r *WindowViewChangeForger) OnMessage(types.ReplicaID, types.Message) {}

// OnTimer implements engine.Protocol.
func (r *WindowViewChangeForger) OnTimer(types.TimerID) {}
