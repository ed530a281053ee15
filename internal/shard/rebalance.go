package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/txn"
)

// Live rebalancing: moving one hash range from its owning group to another
// while both keep serving traffic. A handoff is a two-phase decision over
// the transaction layer's machinery — same id space, same decision log,
// same recovery story:
//
//	prepare   freeze+export the range on the source (one consensus op whose
//	          deterministic result is the range's written records), then
//	          stage the export on the destination in install chunks, each
//	          through the destination's own consensus (replicated before
//	          anything flips).
//	decide    ONE attested counter access binding
//	          H(handoff id ‖ new epoch ‖ new placement digest) — the
//	          paper's one-access-per-consensus property applied to
//	          reconfiguration — published to the attestation log. The log
//	          is first-wins per id AND per epoch, so no two groups can both
//	          claim a range even if a Byzantine orchestrator mints
//	          attestations for conflicting maps.
//	drive     the decision reaches both groups as the ordinary commit/abort
//	          op: the source deletes + releases the range (subsequent
//	          operations answer WrongShard, the stale-epoch retry signal),
//	          the destination applies its staged records and starts owning.
//
// Prepare and drive are one step machine, txn.Handoff, written once: this
// file runs it with blocking submits, and the simulator's one handoff driver
// (sim.HandoffDriver, behind the rebalance and failover rows of
// harness.Experiments()) runs the same machine from kernel callbacks.
//
// Writes to the range are refused (RangeMigrating) only between freeze and
// flip — the availability dip the rebalance row measures — and reads are
// served by the source throughout. Sessions on the old epoch retry
// transparently through the refreshed placement.

// RebalanceOptions tunes one handoff (crash injection mirrors txn.Options;
// the boundaries map onto the same txn.Phase values).
type RebalanceOptions struct {
	// CrashAt stops the orchestrator at the given boundary: PhaseVoted is
	// after freeze+install, PhaseAttested after minting the decision,
	// PhasePublished after publication (before the placement installs
	// cluster-side or any group is told).
	CrashAt txn.Phase
	// DriveOnly, when non-nil, restricts the drive fan-out to these groups
	// — a crash mid-drive that told one side but not the other.
	DriveOnly map[int]bool
}

// RebalanceResult reports one handoff's outcome.
type RebalanceResult struct {
	HandoffID uint64
	From, To  int
	// Epoch is the epoch the proposed placement carries.
	Epoch     uint64
	Committed bool
	// Moved is the number of written records exported to the destination.
	Moved int
	// Chunks is the number of install operations the export needed.
	Chunks int
	// Placement is the proposed successor map (installed iff Committed).
	Placement *PlacementMap
}

// Rebalance hands the hash range r from its current owner to group `to`:
// the live-migration entry point.
func (s *Session) Rebalance(ctx context.Context, r Range, to int) (*RebalanceResult, error) {
	return s.RebalanceWithOptions(ctx, r, to, RebalanceOptions{})
}

// RebalanceWithOptions is Rebalance with crash injection (recovery tests).
// On a crash the partial result carries the handoff id; ResolveTxn settles
// it from the log exactly like an in-doubt transaction.
func (s *Session) RebalanceWithOptions(ctx context.Context, r Range, to int, opts RebalanceOptions) (*RebalanceResult, error) {
	pm := s.refreshPlacement()
	next, err := pm.WithReassigned(r, to)
	if err != nil {
		return nil, err
	}
	src, err := pm.OwnerOf(r)
	if err != nil {
		return nil, err
	}
	hid := s.c.newTxID()
	s.c.registerProposal(hid, next)
	res := &RebalanceResult{HandoffID: hid, From: src, To: to, Epoch: next.Epoch(), Placement: next}

	span := s.c.obs.Tracer().StartTrace("placement", "rebalance")
	defer span.End()
	span.Annotate("handoff %d: range %v from group %d to group %d (epoch %d)", hid, r, src, to, next.Epoch())

	// Prepare, source side: freeze the range and collect its export. The
	// freeze opens the write-unavailability window the MRebalanceWindow
	// histogram measures; it closes at the routing flip.
	h := txn.NewHandoff(hid, r, src, to)
	frozen := time.Now()
	freezeSpan := span.Child("placement", "freeze")
	g, op := h.Next()
	err = s.prepareStep(ctx, h, g, op)
	freezeSpan.End()
	if err != nil {
		return res, s.abortHandoff(ctx, h, res, err)
	}
	res.Moved, res.Chunks = h.Moved, h.Chunks
	freezeSpan.Annotate("%d records exported", h.Moved)

	// Prepare, destination side: stage the export chunk by chunk through
	// the destination's consensus.
	installSpan := span.Child("placement", "install")
	installSpan.Annotate("%d chunks to group %d", h.Chunks, to)
	for g, op := h.Next(); op != nil; g, op = h.Next() {
		if err := s.prepareStep(ctx, h, g, op); err != nil {
			installSpan.End()
			return res, s.abortHandoff(ctx, h, res, err)
		}
	}
	installSpan.End()
	if opts.CrashAt == txn.PhaseVoted {
		return res, fmt.Errorf("%w at %v (handoff %d)", txn.ErrCoordinatorCrashed, txn.PhaseVoted, hid)
	}

	// Commit point: one attested counter access binds the new placement.
	decideSpan := span.Child("placement", "decide")
	att, err := s.c.arbiter.DecidePlacement(hid, next.Epoch(), next.Digest())
	if err != nil {
		decideSpan.End()
		return res, fmt.Errorf("handoff %d: arbiter: %w", hid, err)
	}
	decideSpan.Annotate("attested counter value %d binds epoch %d", att.Value, next.Epoch())
	if opts.CrashAt == txn.PhaseAttested {
		decideSpan.End()
		return res, fmt.Errorf("%w at %v (handoff %d)", txn.ErrCoordinatorCrashed, txn.PhaseAttested, hid)
	}
	d, err := s.c.txnLog.Publish(txn.Decision{
		TxID: hid, Commit: true, Epoch: next.Epoch(), Placement: next.Digest(), Att: att,
	})
	decideSpan.End()
	if errors.Is(err, txn.ErrEpochClaimed) {
		// Another handoff activated this epoch first: our flip loses whole.
		return res, s.abortHandoff(ctx, h, res, err)
	}
	if err != nil {
		return res, fmt.Errorf("handoff %d: publish: %w", hid, err)
	}
	// First-wins: recovery may have published an abort before us.
	res.Committed = d.Commit
	if opts.CrashAt == txn.PhasePublished {
		return res, fmt.Errorf("%w at %v (handoff %d)", txn.ErrCoordinatorCrashed, txn.PhasePublished, hid)
	}
	if res.Committed {
		// Activate routing before the drive: sessions hitting WrongShard on
		// the source must find the successor epoch to retry through.
		_ = s.c.installPlacement(next)
		// The flip reopens the range for writes: the window closes here.
		s.c.obs.Metrics().Histogram(obs.MRebalanceWindow).ObserveDuration(time.Since(frozen))
		span.Annotate("committed: epoch %d active", next.Epoch())
	}

	// Drive the decision to both groups.
	driveSpan := span.Child("placement", "drive")
	err = s.driveHandoff(ctx, h, res.Committed, opts.DriveOnly)
	driveSpan.End()
	if err != nil {
		return res, err
	}
	if opts.DriveOnly != nil {
		return res, nil // injected partial drive: the id stays in flight
	}
	s.c.settleHandoff(hid)
	s.refreshPlacement()
	if !res.Committed {
		return res, fmt.Errorf("handoff %d: %w", hid, txn.ErrAborted)
	}
	return res, nil
}

// abortHandoff settles a handoff that cannot commit: mint the abort, let
// publication decide the race, drive the outcome to both sides, and report
// the cause.
func (s *Session) abortHandoff(ctx context.Context, h *txn.Handoff, res *RebalanceResult, cause error) error {
	att, err := s.c.arbiter.Decide(res.HandoffID, false)
	if err != nil {
		return fmt.Errorf("handoff %d: abort arbiter: %w (cause: %v)", res.HandoffID, err, cause)
	}
	d, err := s.c.txnLog.Publish(txn.Decision{TxID: res.HandoffID, Commit: false, Att: att})
	if err != nil {
		return fmt.Errorf("handoff %d: abort publish: %w (cause: %v)", res.HandoffID, err, cause)
	}
	res.Committed = d.Commit // first-wins: a racing commit governs
	if res.Committed {
		if pm := s.c.proposal(res.HandoffID); pm != nil {
			_ = s.c.installPlacement(pm)
		}
	}
	if err := s.driveHandoff(ctx, h, res.Committed, nil); err != nil {
		return err
	}
	s.c.settleHandoff(res.HandoffID)
	s.refreshPlacement()
	return fmt.Errorf("handoff %d aborted: %w", res.HandoffID, cause)
}

// prepareStep submits one prepare operation of h and hands its reply back.
func (s *Session) prepareStep(ctx context.Context, h *txn.Handoff, g int, op *kvstore.Op) error {
	raw, err := s.submitShard(ctx, g, op)
	if err != nil {
		return fmt.Errorf("handoff %d on group %d: %w", h.ID, g, err)
	}
	return h.Answer(raw)
}

// driveHandoff fans the decision out to the source and destination groups
// (ascending, restricted by `only` when non-nil).
func (s *Session) driveHandoff(ctx context.Context, h *txn.Handoff, commit bool, only map[int]bool) error {
	op, groups := h.Drive(commit)
	var first error
	for _, g := range groups {
		if only != nil && !only[g] {
			continue
		}
		if _, err := s.submitShard(ctx, g, op); err != nil && first == nil {
			first = fmt.Errorf("handoff %d: decision on group %d: %w", h.ID, g, err)
		}
	}
	return first
}
