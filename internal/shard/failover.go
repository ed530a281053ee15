package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexitrust/internal/obs"
	"flexitrust/internal/txn"
)

// Failover orchestration: when a group degrades past the health monitor's
// stall threshold, its ranges are evacuated to healthy groups. An
// evacuation is not new machinery — it is Session.Rebalance, and so the one
// handoff step machine (txn.Handoff) the simulator's handoff driver
// (sim.HandoffDriver) also runs for the failover row of
// harness.Experiments(), applied with a policy: a failover IS a placement
// change, each range's epoch bump bound to ONE attested counter access
// through the same first-wins-per-id AND per-epoch AttestationLog every
// handoff uses. That identity is what makes concurrent orchestrators safe:
// two monitors may both decide to evacuate the same degraded group, but
// their conflicting successor placements race for the epoch in the log and
// exactly one activates — the loser's handoff aborts whole
// (ErrEpochClaimed), so no range is ever re-pointed twice.
//
// The evacuation's operations deliberately bypass the session's health
// gate: the freeze/export rides the degraded group's own consensus, and
// the client library's resend machinery is exactly what drives a stalled
// group's backups into the view change that lets the freeze commit. A
// group that cannot commit at all (fewer than n−f replicas) cannot be
// evacuated losslessly — its data lives only in its replicas — so
// EvacuateGroup's context deadline is the honest bound there.

// FailoverOptions tunes one evacuation.
type FailoverOptions struct {
	// CrashAt injects an orchestrator crash at the given handoff boundary
	// (recovery tests); the in-doubt handoff settles via ResolveTxn.
	CrashAt txn.Phase
	// Destinations, when non-nil, restricts evacuation targets to these
	// groups; nil uses every group the monitor currently reports Healthy.
	Destinations []int
}

// FailoverResult reports one orchestration pass.
type FailoverResult struct {
	// Group is the group evacuated.
	Group int
	// Handoffs holds each evacuated range's handoff outcome, in the order
	// the ranges were owned.
	Handoffs []*RebalanceResult
}

// FailoverOrchestrator turns health classifications into placement
// changes: a group Stalled past the monitor's threshold has its ranges
// rebalanced to healthy groups.
type FailoverOrchestrator struct {
	s *Session
}

// NewFailoverOrchestrator builds an orchestrator driving evacuations
// through the given session's identity.
func NewFailoverOrchestrator(s *Session) *FailoverOrchestrator {
	return &FailoverOrchestrator{s: s}
}

// RunOnce samples health and evacuates every group classified Stalled,
// spreading each group's ranges across the currently healthy groups. It
// returns the evacuations performed (possibly none). A pass with no
// healthy destination returns an error — an operator signal, since
// evacuating into a degraded group only moves the problem.
func (o *FailoverOrchestrator) RunOnce(ctx context.Context) ([]FailoverResult, error) {
	var out []FailoverResult
	for _, h := range o.s.c.mon.Sample() {
		if h.State != GroupStalled {
			continue
		}
		res, err := o.EvacuateGroup(ctx, h.Group, FailoverOptions{})
		if res != nil {
			out = append(out, *res)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// EvacuateGroup moves every range group g owns to healthy groups,
// round-robin, one attested placement change per range. Losing a race to a
// concurrent orchestrator — the epoch claimed first (ErrEpochClaimed) or
// the range already frozen under the peer's handoff (txn.ErrRangeBusy) — is
// not a failure: the evacuation waits a beat for the winning handoff to
// settle, re-reads the refreshed placement, and continues with whatever
// ranges g still owns.
func (o *FailoverOrchestrator) EvacuateGroup(ctx context.Context, g int, opts FailoverOptions) (*FailoverResult, error) {
	res := &FailoverResult{Group: g}
	jrn := o.s.c.obs.Journal()
	jrn.Record(obs.EventEvacuation, g, "evacuation started")
	defer func() {
		jrn.Record(obs.EventEvacuation, g, "evacuation finished: %d ranges re-pointed", len(res.Handoffs))
	}()
	for race := 0; ; race++ {
		dests, err := o.destinations(g, opts)
		if err != nil {
			return res, err
		}
		ranges := o.s.refreshPlacement().GroupRanges(g)
		if len(ranges) == 0 {
			return res, nil // fully evacuated (possibly by a racing peer)
		}
		raced := false
		for i, r := range ranges {
			h, err := o.s.RebalanceWithOptions(ctx, r, dests[i%len(dests)], RebalanceOptions{CrashAt: opts.CrashAt})
			if errors.Is(err, txn.ErrEpochClaimed) || errors.Is(err, txn.ErrRangeBusy) {
				// Race lost whole: the aborted attempt re-pointed nothing, so
				// it is not part of this evacuation's outcome.
				raced = true
				break
			}
			if h != nil {
				res.Handoffs = append(res.Handoffs, h)
			}
			if err != nil {
				return res, fmt.Errorf("shard: evacuating group %d range [%#x, %#x]: %w", g, r.Start, r.End, err)
			}
		}
		if !raced {
			return res, nil
		}
		if race >= routeRetryMax {
			return res, fmt.Errorf("shard: evacuation of group %d starved by concurrent handoffs: %w", g, ErrUnroutable)
		}
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(routeRetryDelay):
		}
	}
}

// destinations resolves the evacuation targets for group g.
func (o *FailoverOrchestrator) destinations(g int, opts FailoverOptions) ([]int, error) {
	if opts.Destinations != nil {
		for _, d := range opts.Destinations {
			if d == g || d < 0 || d >= len(o.s.c.groups) {
				return nil, fmt.Errorf("shard: evacuation destination %d invalid for group %d", d, g)
			}
		}
		return opts.Destinations, nil
	}
	var dests []int
	for _, h := range o.s.c.mon.Sample() {
		if h.Group != g && h.State == GroupHealthy {
			dests = append(dests, h.Group)
		}
	}
	if len(dests) == 0 {
		return nil, fmt.Errorf("shard: no healthy destination to evacuate group %d to", g)
	}
	return dests, nil
}
