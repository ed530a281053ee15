package txn

import (
	"errors"
	"fmt"
	"slices"

	"flexitrust/internal/kvstore"
)

// ErrRangeBusy marks a handoff refused because its range is already
// claimed — frozen by a concurrent handoff, under an undecided inbound
// stage, or released since the proposal was derived. The range's fate is
// another handoff's to decide; retry after it settles.
var ErrRangeBusy = errors.New("txn: range claimed by a concurrent handoff")

// Handoff is the prepare and drive of one range handoff, written once for
// every substrate: a resumable step machine that names the operations and
// judges their replies, while the caller submits them — blocking
// (shard.Session.Rebalance) or from kernel callbacks (the simulator's
// handoff driver). The commit point between prepare and drive is the
// caller's: Arbiter.DecidePlacement plus publication.
//
//	prepare  Next yields the freeze+export on the source, then each install
//	         chunk on the destination, one at a time; Answer consumes each
//	         reply. One operation is outstanding at a time, so an
//	         orchestrator submitting under one client identity never has two
//	         requests in flight to a group.
//	drive    Drive yields the decision operation and the groups it goes to.
type Handoff struct {
	// ID is the handoff id (the txn id its decision is published under).
	ID uint64
	// Moved and Chunks describe the export once the freeze is answered: the
	// written records it carried and the install operations they need.
	Moved, Chunks int

	r        kvstore.HashRange
	from, to int
	// installs is nil until the freeze is answered; next counts the
	// operations issued (the freeze, then the chunks).
	installs []*kvstore.Op
	next     int
}

// NewHandoff starts handoff id of range r from group `from` to group `to`.
func NewHandoff(id uint64, r kvstore.HashRange, from, to int) *Handoff {
	return &Handoff{ID: id, r: r, from: from, to: to}
}

// Next returns the next prepare operation and the group it goes to, or a
// nil op once every install chunk is staged (the handoff is prepared). It
// must not be called again before Answer consumes the op's reply.
func (h *Handoff) Next() (int, *kvstore.Op) {
	switch {
	case h.next == 0:
		h.next++
		return h.from, kvstore.EncodeRangeFreeze(h.ID, h.r)
	case h.next <= len(h.installs):
		h.next++
		return h.to, h.installs[h.next-2]
	}
	return 0, nil
}

// Answer consumes the reply to the operation Next last returned. A freeze
// reply is the range's export: it is split into install chunks. A refused
// freeze wraps ErrRangeBusy when another handoff holds the range. An install
// must answer RangeStaged. Any error ends the handoff's prepare; the caller
// aborts it.
func (h *Handoff) Answer(raw []byte) error {
	if h.installs == nil {
		recs, ok := kvstore.DecodeRangeExport(raw)
		if !ok {
			switch string(raw) {
			case kvstore.TxnConflict, kvstore.RangeMigrating, kvstore.WrongShard:
				return fmt.Errorf("freeze on group %d refused (%s): %w", h.from, raw, ErrRangeBusy)
			}
			return fmt.Errorf("freeze on group %d refused: %s", h.from, raw)
		}
		chunks := kvstore.ChunkRangeRecords(recs)
		installs := make([]*kvstore.Op, len(chunks))
		for i, chunk := range chunks {
			op, err := kvstore.EncodeRangeInstall(h.ID, h.r, uint32(i), chunk)
			if err != nil {
				return err
			}
			installs[i] = op
		}
		h.installs, h.Moved, h.Chunks = installs, len(recs), len(chunks)
		return nil
	}
	if string(raw) != kvstore.RangeStaged {
		chunk := h.next - 2
		h.next = len(h.installs) + 1 // stop: nothing further goes out
		return fmt.Errorf("install chunk %d on group %d refused: %s", chunk, h.to, raw)
	}
	return nil
}

// Drive returns the decision operation and the two groups it must reach,
// ascending.
func (h *Handoff) Drive(commit bool) (*kvstore.Op, []int) {
	groups := []int{h.from, h.to}
	slices.Sort(groups)
	return kvstore.EncodeTxnDecision(commit, h.ID, 0), groups
}
