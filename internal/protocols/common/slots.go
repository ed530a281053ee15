package common

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// What every protocol does with its slot log (the recorded proposal per
// sequence number above the stable checkpoint), written once: the shape and
// binding checks on a proposal taken off the wire, the quorum certificate a
// completed vote leaves behind, collecting a view-change quorum's reports,
// re-proposing them, and the two ways a new view's log is installed — by
// voting on it, or by executing it speculatively. The counter-sequenced core
// (core.go) and its two slot actions (actions.go) are built from these; PBFT,
// PBFT-EA and Zyzzyva call the same pieces around their own phases.

// WellFormed is the shape every Preprepare taken off the wire — live, inside
// a view-change report, or as a NewView proposal — must have before anything
// dereferences it: the codec decodes Batch as optional.
func WellFormed(pp *types.Preprepare) bool { return pp != nil && pp.Batch != nil }

// AttestBinds checks the structural binding of an attested proposal
// (everything except the cryptographic verification): minted by attestor's
// trusted component on counter, under epoch, for exactly this slot and batch.
func AttestBinds(pp *types.Preprepare, attestor types.ReplicaID, counter, epoch uint32) bool {
	a := pp.Attest
	return a != nil && a.Replica == attestor && a.Counter == counter && a.Epoch == epoch &&
		types.SeqNum(a.Value) == pp.Seq && a.Digest == pp.Batch.Digest
}

// ReportBinds checks an attested slot report carried by a ViewChange toward
// view target against the binding the live path enforces: the report predates
// the target view, and its attestation is that view's primary's, on the
// sequencing counter, for exactly this slot and batch — any replica can
// attest an arbitrary digest on its OWN counter. The epoch is pinned to
// curEpoch, the incarnation this replica recorded, when the report is from its
// current view; the incarnation of a view it never installed is unknowable
// here.
func (b *Base) ReportBinds(pp *types.Preprepare, target types.View, counter, curEpoch uint32) bool {
	if !WellFormed(pp) || pp.Attest == nil || pp.View >= target {
		return false
	}
	epoch := pp.Attest.Epoch
	if pp.View == b.View {
		epoch = curEpoch
	}
	return AttestBinds(pp, types.Primary(pp.View, b.Cfg.N), counter, epoch)
}

// QCs records, per slot until the stable checkpoint, the value whose votes
// reached quorum there. The certificate itself is assembled from the vote set
// only when a view-change report carries it: slots reach quorum once a batch,
// reports are rare.
type QCs map[types.SeqNum]qcValue

// qcValue is the (view, digest) a slot's quorum voted for.
type qcValue struct {
	view   types.View
	digest types.Digest
}

// QuorumReached records into qcs that (v, seq, d) reached its vote quorum,
// with voters distinct replicas so far (observed as MQCSize).
func (b *Base) QuorumReached(qcs QCs, v types.View, seq types.SeqNum, d types.Digest, voters int) {
	qcs[seq] = qcValue{v, d}
	b.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(voters))
}

// EncodeQC encodes slot seq's quorum certificate over votes, as of the
// report: one compact record of the vote set, carried in view-change reports
// in place of the loose votes. It is nil for a slot with no quorum recorded.
func (b *Base) EncodeQC(votes *engine.QuorumSet, qcs QCs, seq types.SeqNum) []byte {
	q, ok := qcs[seq]
	if !ok {
		return nil
	}
	voters := votes.Voters(q.view, seq, q.digest)
	return crypto.AssembleQC(q.view, seq, q.digest, types.ZeroDigest, b.Cfg.N, voters).Encode()
}

// OnCommitCert answers a client's commit certificate — the Zyzzyva and MinZZ
// slow path — with a LocalCommit, for a slot this replica executed with the
// certified batch. A certificate that carries its response set must hold a
// quorum of responses matching its digest and history, checked as one
// aggregated quorum certificate once per slot; a bare one rests on the local
// execution.
func (b *Base) OnCommitCert(preprepares map[types.SeqNum]*types.Preprepare, cc *types.CommitCert) {
	pp, ok := preprepares[cc.Seq]
	if !ok || pp.Batch.Digest != cc.Digest || cc.Seq > b.Exec.LastExecuted() {
		return
	}
	if len(cc.Responses) > 0 && !b.certified[cc.Seq] {
		voters := make([]types.ReplicaID, 0, len(cc.Responses))
		for _, r := range cc.Responses {
			if r != nil && r.Digest == cc.Digest && r.History == cc.History {
				voters = append(voters, r.Replica)
			}
		}
		qc := crypto.AssembleQC(cc.View, cc.Seq, cc.Digest, cc.History, b.Cfg.N, voters)
		if !b.Env.Crypto().VerifyQC(qc, b.Quorum) {
			return
		}
		if b.certified == nil {
			b.certified = make(map[types.SeqNum]bool)
		}
		b.certified[cc.Seq] = true
		b.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
	}
	b.Env.SendClient(cc.Client, &types.LocalCommit{
		Replica: b.Env.ID(), View: b.View, Seq: cc.Seq, Digest: cc.Digest, Client: cc.Client,
	})
}

// ValidQC checks the quorum certificate a well-formed view-change report
// carries: it decodes, names the report's slot and batch, and passes one
// VerifyQC at the protocol's quorum.
func (b *Base) ValidQC(pr *types.PreparedProof) bool {
	qc, err := crypto.DecodeQuorumCert(pr.QC)
	return err == nil && qc.Seq == pr.Preprepare.Seq && qc.Digest == pr.Preprepare.Batch.Digest &&
		b.Env.Crypto().VerifyQC(qc, b.Quorum)
}

// ValidAttestedReports validates a ViewChange whose slot reports are attested
// proposals: each must bind its slot (ReportBinds) and its attestation verify
// — a memo hit for every slot this replica already processed — and an attached
// quorum certificate must pass ValidQC.
func (b *Base) ValidAttestedReports(vc *types.ViewChange, counter, curEpoch uint32) bool {
	for _, pp := range SlotReports(vc) {
		if !b.ReportBinds(pp, vc.NewView, counter, curEpoch) || !b.Env.VerifyAttestation(pp.Attest) {
			return false
		}
	}
	return b.validQCs(vc)
}

// validQCs checks every quorum certificate attached to vc's well-formed
// reports.
func (b *Base) validQCs(vc *types.ViewChange) bool {
	for _, pr := range vc.Prepared {
		if len(pr.QC) != 0 && !b.ValidQC(pr) {
			return false
		}
	}
	return true
}

// SlotReports is the one accessor over a ViewChange's slot reports, which
// travel inside PreparedProofs where they carry a certificate and as bare
// Preprepares where the proposal certifies itself.
func SlotReports(vc *types.ViewChange) []*types.Preprepare {
	out := make([]*types.Preprepare, 0, len(vc.Prepared)+len(vc.Preprepares))
	for _, pr := range vc.Prepared {
		var pp *types.Preprepare // stays nil for a nil proof; validation rejects it
		if pr != nil {
			pp = pr.Preprepare
		}
		out = append(out, pp)
	}
	return append(out, vc.Preprepares...)
}

// AdmitReports runs Admit over every slot report vc carries. The incoming
// primary, the one replica that re-proposes what the reports hold, refuses a
// ViewChange whose reports it would not have voted on, whole: so it never
// re-proposes a forged request, and it cannot gather a quorum that omits a
// committed slot either, since an honest member of the slot's commit quorum
// reports it. Backups check what it re-proposes with Admit.
func (b *Base) AdmitReports(vc *types.ViewChange) bool {
	for _, pp := range SlotReports(vc) {
		if !b.Admit(pp) {
			return false
		}
	}
	return true
}

// CollectSlots merges what a view-change quorum reports: the highest stable
// checkpoint, and per slot the report accept admits from the latest view — a
// re-proposal that superseded the slot wins over what it replaced, so the
// result does not depend on the order the votes are handed over in. accept
// re-checks each report where the check can have moved since its ViewChange
// was validated (the validator's view or epoch).
func CollectSlots(vcs []*types.ViewChange, accept func(*types.Preprepare) bool) (stable types.SeqNum, slots map[types.SeqNum]*types.Preprepare) {
	slots = make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pp := range SlotReports(vc) {
			if !accept(pp) {
				continue
			}
			if cur, ok := slots[pp.Seq]; !ok || pp.View > cur.View {
				slots[pp.Seq] = pp
			}
		}
	}
	return stable, slots
}

// Repropose builds view v's proposals from collected slots: every sequence
// number from stable+1 through the highest one reported, the reported batch
// or, in a gap, a no-op. bind, when non-nil, attests or signs each proposal in
// slot order; if it fails (a trusted access did) the list ends there.
func Repropose(v types.View, stable types.SeqNum, slots map[types.SeqNum]*types.Preprepare,
	bind func(*types.Preprepare) bool) []*types.Preprepare {
	maxSeq := stable
	for seq := range slots {
		maxSeq = max(maxSeq, seq)
	}
	var proposals []*types.Preprepare
	for seq := stable + 1; seq <= maxSeq; seq++ {
		pp := &types.Preprepare{View: v, Seq: seq, Batch: &types.Batch{Digest: types.ZeroDigest}}
		if reported, ok := slots[seq]; ok {
			pp.Batch = reported.Batch
		}
		if bind != nil && !bind(pp) {
			break
		}
		proposals = append(proposals, pp)
	}
	return proposals
}

// DropThrough deletes per-slot state at and below a stable checkpoint.
func DropThrough[V any](m map[types.SeqNum]V, stable types.SeqNum) {
	for seq := range m {
		if seq <= stable {
			delete(m, seq)
		}
	}
}

// Voter is what InstallVotes needs of a protocol that decides slots by vote.
type Voter interface {
	// Forget drops the vote state of a slot the new view reassigns.
	Forget(seq types.SeqNum)
	// Proposed counts this replica's own proposal as its vote.
	Proposed(pp *types.Preprepare)
	// Vote counts primary's proposal as its vote, then casts this replica's.
	Vote(primary types.ReplicaID, pp *types.Preprepare)
}

// InstallVotes installs a validated NewView's log at a replica that votes on
// slots; stable is the quorum's stable point. Every slot above it is dropped
// first: one the quorum did not re-propose committed nowhere, and kept it
// would refuse the new view's proposal for its sequence number as a duplicate
// and wedge this replica there. The primary's re-proposals are its votes, as
// its fresh proposals are — with f replicas down the backups alone are one
// short of the quorum — and a backup votes for every slot it has not executed.
func (b *Base) InstallVotes(log map[types.SeqNum]*types.Preprepare, v Voter, nv *types.NewView, stable types.SeqNum) {
	for seq := range log {
		if seq > stable {
			delete(log, seq)
			v.Forget(seq)
		}
	}
	for _, pp := range nv.Proposals {
		log[pp.Seq] = pp
		v.Forget(pp.Seq)
	}
	primary := types.Primary(nv.View, b.Cfg.N)
	for _, pp := range nv.Proposals {
		if primary == b.Env.ID() {
			v.Proposed(pp)
		} else if pp.Seq > b.Exec.LastExecuted() {
			v.Vote(primary, pp)
		}
	}
}

// InstallSpeculative installs a validated NewView's log at a replica that
// executes slots on certification. If it executed a slot the new view drops
// or assigns differently it rolls back to its last stable checkpoint and
// replays the log it keeps between that (possibly older) snapshot and stable,
// the quorum's stable point; the new view's proposals then execute in order.
func (b *Base) InstallSpeculative(log map[types.SeqNum]*types.Preprepare, nv *types.NewView, stable types.SeqNum) {
	if b.contradicted(log, nv, stable) {
		resume := b.RollbackToStable()
		b.Env.Logf("rolled back speculative suffix to seq %d", resume)
		for seq := resume + 1; seq <= stable; seq++ {
			if pp, ok := log[seq]; ok {
				b.Exec.Commit(seq, pp.Batch)
			}
		}
	}
	for seq := range log {
		if seq > stable {
			delete(log, seq)
		}
	}
	for _, pp := range nv.Proposals {
		log[pp.Seq] = pp
		b.Exec.Commit(pp.Seq, pp.Batch) // re-execute / fill, in order
	}
}

// contradicted reports whether this replica speculatively executed a slot the
// new view assigns differently (or dropped).
func (b *Base) contradicted(log map[types.SeqNum]*types.Preprepare, nv *types.NewView, stable types.SeqNum) bool {
	if b.Exec.LastExecuted() <= stable {
		return false
	}
	assigned := make(map[types.SeqNum]types.Digest, len(nv.Proposals))
	for _, pp := range nv.Proposals {
		assigned[pp.Seq] = pp.Batch.Digest
	}
	for seq := stable + 1; seq <= b.Exec.LastExecuted(); seq++ {
		if pp, executedHere := log[seq]; executedHere {
			if d, ok := assigned[seq]; !ok || d != pp.Batch.Digest {
				return true
			}
		}
	}
	return false
}
