package engine

import (
	"testing"
	"time"

	"flexitrust/internal/types"
)

const (
	testLeaseDur    = 100 * time.Millisecond
	testLeaseMargin = 10 * time.Millisecond
)

// served builds a served reply from replica under (view, epoch) at watermark.
func served(replica types.ReplicaID, view types.View, epoch uint64, wm types.SeqNum) *types.LeaseReadReply {
	return &types.LeaseReadReply{Replica: replica, View: view, Epoch: epoch, Watermark: wm, Status: types.LeaseReadOK}
}

// verifier counts attestation checks and answers ok.
type verifier struct {
	calls int
	ok    bool
}

func (v *verifier) verify(*types.LeaseReadReply) bool { v.calls++; return v.ok }

func TestLeaseHolderLifetime(t *testing.T) {
	h := NewLeaseHolder(4, testLeaseDur, testLeaseMargin)
	if _, ok := h.Usable(0); ok {
		t.Fatal("empty holder usable")
	}
	if h.RenewalDue(0) {
		t.Fatal("renewal due with no lease: the first grant is the reader's, not a renewal")
	}
	if !h.BeginGrant() || h.BeginGrant() {
		t.Fatal("grant slot is not single-flight")
	}
	// Submitted at 5ms, observed committed whenever: the lifetime runs from
	// submission.
	h.Install(1, 7, 5*time.Millisecond)
	if !h.BeginGrant() {
		t.Fatal("install left the grant slot taken")
	}
	h.GrantFailed()
	b, ok := h.Usable(6 * time.Millisecond)
	if !ok || b.View != 1 || b.Epoch != 7 || b.Primary != types.Primary(1, 4) ||
		b.Expiry != 5*time.Millisecond+testLeaseDur-testLeaseMargin {
		t.Fatalf("binding %+v usable=%v", b, ok)
	}
	if h.RenewalDue(54 * time.Millisecond) {
		t.Fatal("renewal due before half the lease's life")
	}
	if !h.RenewalDue(55 * time.Millisecond) {
		t.Fatal("renewal not due at half the lease's life")
	}
	h.BeginGrant()
	if h.RenewalDue(60 * time.Millisecond) {
		t.Fatal("second renewal due with one in flight")
	}
	h.GrantFailed()
	if _, ok := h.Usable(95 * time.Millisecond); ok {
		t.Fatal("usable at its expiry")
	}
	if h.RenewalDue(95 * time.Millisecond) {
		t.Fatal("renewal due on an expired lease")
	}
}

func TestLeaseHolderAccept(t *testing.T) {
	const now = 20 * time.Millisecond
	p := types.Primary(1, 4)
	fresh := func() *LeaseHolder {
		h := NewLeaseHolder(4, testLeaseDur, testLeaseMargin)
		h.BeginGrant()
		h.Install(1, 7, 0)
		return h
	}
	good := &verifier{ok: true}

	t.Run("accepts the held binding and verifies once per epoch", func(t *testing.T) {
		h, v := fresh(), &verifier{ok: true}
		for i := 0; i < 3; i++ {
			if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, v.verify); got != LeaseAccepted {
				t.Fatalf("verdict %v", got)
			}
		}
		if v.calls != 1 {
			t.Fatalf("%d attestation checks for one epoch", v.calls)
		}
		h.BeginGrant()
		h.Install(1, 8, now)
		h.Accept(served(p, 1, 8, 10), 8, 10, now, v.verify)
		if v.calls != 2 {
			t.Fatalf("%d attestation checks after a renewal, want 2", v.calls)
		}
	})
	t.Run("bad attestation", func(t *testing.T) {
		h, v := fresh(), &verifier{}
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, v.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); !ok {
			t.Fatal("one unverifiable reply dropped the binding")
		}
	})
	t.Run("renewal landing mid-read", func(t *testing.T) {
		// The read went out under epoch 7; by the time its reply (served
		// under 8) is judged, 8 is what the holder holds.
		h := fresh()
		h.BeginGrant()
		h.Install(1, 8, now)
		if got := h.Accept(served(p, 1, 8, 10), 7, 10, now, good.verify); got != LeaseAccepted {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("primary ahead of our renewal", func(t *testing.T) {
		h := fresh()
		h.BeginGrant()
		if got := h.Accept(served(p, 1, 8, 10), 7, 10, now, good.verify); got != LeaseRenewing {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); !ok {
			t.Fatal("binding dropped while its renewal is in flight")
		}
		h.Install(1, 8, now)
		if got := h.Accept(served(p, 1, 8, 10), 7, 10, now, good.verify); got != LeaseAccepted {
			t.Fatalf("re-judged verdict %v", got)
		}
	})
	t.Run("newer lease that is not ours", func(t *testing.T) {
		h := fresh()
		if got := h.Accept(served(p, 1, 8, 10), 7, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); ok {
			t.Fatal("binding kept although the primary serves under a newer lease")
		}
	})
	t.Run("late reply under the previous epoch", func(t *testing.T) {
		// The read went out and was served under epoch 7; the renewal to 8
		// (same primary, same view) was installed while it was in flight.
		h, v := fresh(), &verifier{ok: true}
		h.BeginGrant()
		h.Install(1, 8, now)
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, v.verify); got != LeaseAccepted {
			t.Fatalf("verdict %v", got)
		}
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, v.verify); got != LeaseAccepted || v.calls != 1 {
			t.Fatalf("second reply: verdict %v after %d attestation checks, want accepted after 1", got, v.calls)
		}
		if b, ok := h.Usable(now); !ok || b.Epoch != 8 {
			t.Fatal("a reply under the superseded epoch cost the fresh lease")
		}
		if got := h.Accept(served(p, 1, 7, 9), 7, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("below the fence: verdict %v", got)
		}
	})
	t.Run("superseded binding past its own expiry", func(t *testing.T) {
		h := fresh() // epoch 7 expires at 90ms
		h.BeginGrant()
		h.Install(1, 8, 60*time.Millisecond)
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, 95*time.Millisecond, good.verify); got != LeaseGone {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("superseded binding's unverifiable attestation", func(t *testing.T) {
		h := fresh()
		h.BeginGrant()
		h.Install(1, 8, now)
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, (&verifier{}).verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("late reply under an epoch the read did not go out under", func(t *testing.T) {
		h := fresh()
		h.BeginGrant()
		h.Install(1, 8, now)
		if got := h.Accept(served(p, 1, 7, 10), 8, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
		if b, ok := h.Usable(now); !ok || b.Epoch != 8 {
			t.Fatal("a stale reply cost the fresh lease")
		}
	})
	t.Run("renewal in a later view", func(t *testing.T) {
		// A lease of view 1 superseded by one of view 2 was held by another
		// primary: the late reply under view 1 is not accepted.
		h := fresh()
		h.BeginGrant()
		h.Install(2, 8, now)
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("no lease drops only the binding the read went out under", func(t *testing.T) {
		h := fresh()
		h.BeginGrant()
		h.Install(1, 8, now)
		noLease := &types.LeaseReadReply{Replica: p, Status: types.LeaseReadNoLease}
		if got := h.Accept(noLease, 7, 10, now, good.verify); got != LeaseGone {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); !ok {
			t.Fatal("NoLease for epoch 7 dropped epoch 8")
		}
		h.Accept(noLease, 8, 10, now, good.verify)
		if _, ok := h.Usable(now); ok {
			t.Fatal("NoLease for the held epoch kept it")
		}
	})
	t.Run("dropped binding still vouches for reads already served", func(t *testing.T) {
		h := fresh()
		h.Drop(7)
		if _, ok := h.Usable(now); ok {
			t.Fatal("usable after drop")
		}
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, now, good.verify); got != LeaseAccepted {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("below the fence", func(t *testing.T) {
		h := fresh()
		if got := h.Accept(served(p, 1, 7, 9), 7, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); ok {
			t.Fatal("binding kept after the primary served below the fence")
		}
	})
	t.Run("expired in flight", func(t *testing.T) {
		h := fresh()
		if got := h.Accept(served(p, 1, 7, 10), 7, 10, testLeaseDur, good.verify); got != LeaseGone {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("wrong replica", func(t *testing.T) {
		h := fresh()
		if got := h.Accept(served(p+1, 1, 7, 10), 7, 10, now, good.verify); got != LeaseMismatch {
			t.Fatalf("verdict %v", got)
		}
	})
	t.Run("refusals keep the lease", func(t *testing.T) {
		h := fresh()
		refused := &types.LeaseReadReply{Replica: p, View: 1, Epoch: 7, Watermark: 9, Status: types.LeaseReadRefused}
		if got := h.Accept(refused, 7, 10, now, good.verify); got != LeaseBehindFence {
			t.Fatalf("verdict %v", got)
		}
		refused.Watermark = 10
		if got := h.Accept(refused, 7, 10, now, good.verify); got != LeaseRefused {
			t.Fatalf("verdict %v", got)
		}
		if _, ok := h.Usable(now); !ok {
			t.Fatal("a refusal dropped the binding")
		}
	})
	t.Run("never-granted holder accepts nothing", func(t *testing.T) {
		h := NewLeaseHolder(4, testLeaseDur, testLeaseMargin)
		if got := h.Accept(served(0, 0, 0, 10), 0, 10, now, good.verify); got == LeaseAccepted {
			t.Fatal("zero binding accepted a reply")
		}
	})
}
