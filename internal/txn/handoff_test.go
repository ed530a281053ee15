package txn

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"flexitrust/internal/kvstore"
)

// TestHandoffSteps drives the step machine against table replies: how a
// freeze refusal is classified, that a refused install stops it, that the
// export goes out in order one chunk per Next, and what Drive names.
func TestHandoffSteps(t *testing.T) {
	r := kvstore.HashRange{Start: 0, End: 1<<63 - 1}
	src := kvstore.New(1000)
	value := bytes.Repeat([]byte("v"), 1024)
	for k := uint64(1); k <= 400; k++ {
		if r.Contains(kvstore.KeyHash(k)) {
			src.Apply((&kvstore.Op{Code: kvstore.OpInsert, Key: k, Value: value}).Encode())
		}
	}
	export := src.Apply(kvstore.EncodeRangeFreeze(7, r).Encode())
	recs, ok := kvstore.DecodeRangeExport(export)
	if !ok {
		t.Fatalf("fixture export refused: %s", export)
	}
	chunks := kvstore.ChunkRangeRecords(recs)
	if len(chunks) < 2 {
		t.Fatalf("fixture export fits %d chunk, want several", len(chunks))
	}

	for _, tc := range []struct {
		name   string
		freeze string // reply to the freeze; "" answers with the export
		busy   bool   // the freeze error wraps ErrRangeBusy
		refuse int    // install chunk answered with TxnConflict (-1: none)
	}{
		{name: "conflict", freeze: kvstore.TxnConflict, busy: true, refuse: -1},
		{name: "migrating", freeze: kvstore.RangeMigrating, busy: true, refuse: -1},
		{name: "wrong shard", freeze: kvstore.WrongShard, busy: true, refuse: -1},
		{name: "stale", freeze: kvstore.TxnStale, refuse: -1},
		{name: "error", freeze: "ERR", refuse: -1},
		{name: "first install refused", refuse: 0},
		{name: "last install refused", refuse: len(chunks) - 1},
		{name: "prepared", refuse: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHandoff(7, r, 2, 1)
			g, op := h.Next()
			if g != 2 || op.Code != kvstore.OpRangeFreeze {
				t.Fatalf("first step is %v on group %d, want the freeze on the source", op.Code, g)
			}
			if tc.freeze != "" {
				err := h.Answer([]byte(tc.freeze))
				if err == nil || errors.Is(err, ErrRangeBusy) != tc.busy {
					t.Fatalf("freeze refused with %s: err %v, want ErrRangeBusy %v", tc.freeze, err, tc.busy)
				}
				if _, op := h.Next(); op != nil {
					t.Fatalf("refused freeze still yields %v", op.Code)
				}
				return
			}
			if err := h.Answer(export); err != nil {
				t.Fatal(err)
			}
			if h.Moved != len(recs) || h.Chunks != len(chunks) {
				t.Fatalf("export read as %d records in %d chunks, want %d in %d", h.Moved, h.Chunks, len(recs), len(chunks))
			}
			for i := 0; ; i++ {
				g, op := h.Next()
				if op == nil {
					if i != len(chunks) {
						t.Fatalf("machine stopped after %d of %d chunks", i, len(chunks))
					}
					break
				}
				want, err := kvstore.EncodeRangeInstall(7, r, uint32(i), chunks[i])
				if err != nil {
					t.Fatal(err)
				}
				if g != 1 || !bytes.Equal(op.Encode(), want.Encode()) {
					t.Fatalf("step %d is not install chunk %d on the destination", i+1, i)
				}
				if i == tc.refuse {
					if err := h.Answer([]byte(kvstore.TxnConflict)); err == nil {
						t.Fatalf("install chunk %d refused but the machine went on", i)
					}
					if _, op := h.Next(); op != nil {
						t.Fatalf("refused install still yields %v", op.Code)
					}
					return
				}
				if err := h.Answer([]byte(kvstore.RangeStaged)); err != nil {
					t.Fatal(err)
				}
			}
			op, groups := h.Drive(true)
			if !slices.Equal(groups, []int{1, 2}) {
				t.Fatalf("Drive names groups %v, want [1 2]", groups)
			}
			if !bytes.Equal(op.Encode(), kvstore.EncodeTxnDecision(true, 7, 0).Encode()) {
				t.Fatal("Drive's op is not the handoff's commit decision")
			}
		})
	}
}
