package common_test

import (
	"slices"
	"testing"

	"flexitrust/internal/engine"
	"flexitrust/internal/protocols/ptest"
	"flexitrust/internal/types"
)

// Requests held across a view change (Base.EnterView's re-route), checked
// against every protocol the evaluation compares (allProtocols, at f=1):
// recovery from a failed primary must need no client message beyond the one
// resend that started it.

// failoverCluster is a ptest cluster driven one event at a time: every
// stimulus runs with delivery paused and is then flushed, so handlers never
// re-enter each other (a backup's Forward reaches the new primary after that
// primary has finished installing the view, as on the real event loops).
type failoverCluster struct {
	*ptest.Cluster
	t *testing.T
}

func newFailoverCluster(t *testing.T, pc protocolCase, batch int) *failoverCluster {
	cfg := pc.cfg(1)
	cfg.BatchSize = batch
	return &failoverCluster{Cluster: ptest.NewCluster(t, cfg, pc.protocol), t: t}
}

// step runs fn and everything it causes.
func (c *failoverCluster) step(fn func()) {
	c.Paused = true
	fn()
	c.Flush()
}

// mute drops everything r sends; crash also everything sent to it.
func (c *failoverCluster) mute(r types.ReplicaID) {
	for to := range c.Protos {
		c.Sever(r, types.ReplicaID(to))
	}
}

func (c *failoverCluster) crash(r types.ReplicaID) {
	c.mute(r)
	for from := range c.Protos {
		c.Sever(types.ReplicaID(from), r)
	}
}

// resendToBackups is the client's one complaint, as view 0's backups see it.
func (c *failoverCluster) resendToBackups(req *types.ClientRequest) {
	c.step(func() {
		for r := 1; r < len(c.Protos); r++ {
			c.Protos[r].OnMessage(-1, &types.ClientResend{Request: req})
		}
	})
}

// expireProgressTimers lets one ViewChangeTimeout pass and fires the progress
// timer of every replica in rs that has it armed.
func (c *failoverCluster) expireProgressTimers(rs ...types.ReplicaID) {
	progress := types.TimerID{Kind: types.TimerViewChange}
	c.step(func() {
		for _, r := range rs {
			env := c.Envs[r]
			env.Advance(c.Cfg.ViewChangeTimeout)
			if due, armed := env.Timers[progress]; armed && due <= env.Now() {
				delete(env.Timers, progress)
				c.Protos[r].OnTimer(progress)
			}
		}
	})
}

func (c *failoverCluster) status(r types.ReplicaID) engine.Status {
	return c.Protos[r].(engine.StatusReporter).Status()
}

// wantExecutedOnce fails unless each replica in rs is in view and executed
// req exactly once, all to the same state.
func (c *failoverCluster) wantExecutedOnce(req *types.ClientRequest, view types.View, rs ...types.ReplicaID) {
	c.t.Helper()
	for _, r := range rs {
		if st := c.status(r); st.View != view || st.InViewChange {
			c.t.Fatalf("replica %d: view %d (changing: %v), want view %d installed", r, st.View, st.InViewChange, view)
		}
		if times := c.executions(r, req); times != 1 {
			c.t.Fatalf("replica %d executed the request %d times, want once (slots %v)", r, times, c.Envs[r].Executed)
		}
		if got, want := c.Envs[r].StateDigest(), c.Envs[rs[0]].StateDigest(); got != want {
			c.t.Fatalf("replica %d state diverges from replica %d", r, rs[0])
		}
	}
}

// executions counts how often replica r executed req.
func (c *failoverCluster) executions(r types.ReplicaID, req *types.ClientRequest) int {
	times := 0
	for _, k := range c.Envs[r].Requests {
		if k == req.Key() {
			times++
		}
	}
	return times
}

// backups lists replicas 1..n-1.
func backups(n int) []types.ReplicaID {
	rs := make([]types.ReplicaID, 0, n-1)
	for r := 1; r < n; r++ {
		rs = append(rs, types.ReplicaID(r))
	}
	return rs
}

// TestHeldRequestsExecuteInNewViewWithoutClient: the backups receive one
// ClientResend, the primary stays silent, the view changes, and the request
// executes exactly once in view 1 with no further client message, whatever
// the primary had done with it:
//
//   - crashed: it died before it saw the request;
//   - muted: it proposed the request into a dead link and lives on, hearing
//     everything, as a backup of view 1 — where it too executes exactly once;
//   - delivered: its proposal reached every backup but none of their votes
//     reached each other before it died. Where backups act on the proposal
//     alone (speculative execution, or an f+1 quorum the primary's own vote
//     completes) they executed it in view 0, answer the resend from their
//     caches and rightly keep the view; elsewhere the new view re-proposes
//     the slot AND the new primary batches the re-routed request again, and
//     the executor's duplicate filter keeps that to one execution.
func TestHeldRequestsExecuteInNewViewWithoutClient(t *testing.T) {
	for _, pc := range allProtocols {
		for _, failure := range []string{"crashed", "muted", "delivered"} {
			t.Run(pc.meta.Name+"/"+failure, func(t *testing.T) {
				n := pc.meta.Replicas(1)
				c := newFailoverCluster(t, pc, 1)
				req := request(1, 1)
				live := backups(n)
				switch failure {
				case "crashed":
					c.crash(0)
				case "muted":
					c.mute(0)
					c.step(func() { c.SubmitTo(0, req) })
					live = append(live, 0)
				case "delivered":
					for _, a := range live {
						for _, b := range live {
							c.Sever(a, b)
						}
					}
					c.step(func() { c.SubmitTo(0, req) })
					clear(c.Cut)
					c.crash(0)
				}
				view := types.View(1)
				if c.executions(1, req) > 0 {
					view = 0 // done before the client complained
				}
				c.resendToBackups(req)
				c.expireProgressTimers(backups(n)...)
				c.wantExecutedOnce(req, view, live...)
			})
		}
	}
}

// TestIdleNewPrimaryIsSuspectedWithoutClient: a new primary that installs the
// view and then sits on the re-routed request (its batch never fills and its
// flush timer never fires) is voted out one ViewChangeTimeout later, with no
// client traffic in between: the backups' forwards armed their progress
// timers at the instant the view installed.
func TestIdleNewPrimaryIsSuspectedWithoutClient(t *testing.T) {
	for _, pc := range allProtocols {
		t.Run(pc.meta.Name, func(t *testing.T) {
			n := pc.meta.Replicas(1)
			c := newFailoverCluster(t, pc, 100)
			req := request(1, 1)
			c.crash(0)
			c.resendToBackups(req)
			c.expireProgressTimers(backups(n)...)
			watchers := backups(n)[1:] // view 1's backups that are alive
			for _, r := range watchers {
				if st := c.status(r); st.View != 1 || st.InViewChange {
					t.Fatalf("replica %d: view %d (changing: %v), want view 1 installed", r, st.View, st.InViewChange)
				}
				due, armed := c.Envs[r].Timers[types.TimerID{Kind: types.TimerViewChange}]
				if want := c.Envs[r].Now() + c.Cfg.ViewChangeTimeout; !armed || due != want {
					t.Fatalf("replica %d: progress timer armed=%v due=%v, want due %v (one timeout after the view installed)",
						r, armed, due, want)
				}
			}
			c.expireProgressTimers(watchers...)
			for _, r := range watchers {
				if st := c.status(r); !st.InViewChange && st.View < 2 {
					t.Fatalf("replica %d still trusts the idle primary of view %d", r, st.View)
				}
			}
		})
	}
}

// TestIncomingPrimaryInstallsOnItsOwnVote: view 0's primary is dead, and
// every other backup's vote for view 1 reaches replica 1, the incoming
// primary, before replica 1's own progress timer fires. When its own vote
// completes the quorum (at n = 2f+1 one other vote stays below the f+1 that
// makes it join early), replica 1 must install view 1 then, not wait for a
// vote that never comes.
func TestIncomingPrimaryInstallsOnItsOwnVote(t *testing.T) {
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		n := pc.meta.Replicas(1)
		c := newFailoverCluster(t, pc, 1)
		req := request(1, 1)
		c.crash(0)
		c.resendToBackups(req)
		for _, r := range backups(n)[1:] {
			c.expireProgressTimers(r)
		}
		c.expireProgressTimers(1)
		c.wantExecutedOnce(req, 1, backups(n)...)
	})
}

// fireBatchTimer lets one BatchTimeout pass at replica r and fires its batch
// timer if that made it due; it reports whether the timer fired.
func (c *failoverCluster) fireBatchTimer(r types.ReplicaID) bool {
	id := types.TimerID{Kind: types.TimerBatch}
	env := c.Envs[r]
	env.Advance(c.Cfg.BatchTimeout)
	if due, armed := env.Timers[id]; !armed || due > env.Now() {
		return false
	}
	delete(env.Timers, id)
	c.Protos[r].OnTimer(id)
	return true
}

// TestBatchTimerSurvivesViewChange: replica 0 holds a partial batch when
// every replica votes for view n, which replica 0 leads again, and its batch
// timer fires while the votes are in flight. Once the NewView installs, the
// re-routed request and then a lone fresh one must each commit one
// BatchTimeout after they reach the queue: the timer that fired mid-change
// must not leave the batcher believing one is still running.
func TestBatchTimerSurvivesViewChange(t *testing.T) {
	forEachProtocol(t, nil, func(t *testing.T, pc protocolCase) {
		c := newFailoverCluster(t, pc, 4)
		a, b := write(1, 1, "A"), write(2, 2, "B")
		c.step(func() { c.SubmitTo(0, a) })
		target := types.View(c.Cfg.N)
		c.step(func() {
			for _, p := range c.Protos {
				p.(interface{ StartViewChange(types.View) }).StartViewChange(target)
			}
			if !c.fireBatchTimer(0) {
				t.Fatal("no batch timer armed for the partial batch")
			}
		})
		live := append(backups(c.Cfg.N), 0)
		for _, r := range live {
			if st := c.status(r); st.View != target || st.InViewChange {
				t.Fatalf("replica %d: view %d (changing: %v), want view %d installed", r, st.View, st.InViewChange, target)
			}
		}
		for _, req := range []*types.ClientRequest{a, b} {
			if req == b {
				c.step(func() { c.SubmitTo(0, b) })
			}
			c.step(func() {
				if !c.fireBatchTimer(0) {
					t.Fatalf("no batch timer armed for request %d in view %d", req.Client, target)
				}
			})
			c.wantExecutedOnce(req, target, live...)
		}
	})
}

// TestSequentialBatchTimerFlushesAtKick: on the rows with one instance in
// flight at a time, a batch timer that fires while the instance is in flight
// leaves the flush due, and the Kick that completes the instance cuts the
// partial batch, with no further timeout.
func TestSequentialBatchTimerFlushesAtKick(t *testing.T) {
	forEachProtocol(t, func(pc protocolCase) bool { return !pc.meta.OutOfOrder }, func(t *testing.T, pc protocolCase) {
		c := newFailoverCluster(t, pc, 4)
		a, b := write(1, 1, "A"), write(2, 2, "B")
		c.step(func() {
			c.SubmitTo(0, a)
			if !c.fireBatchTimer(0) {
				t.Fatal("no batch timer armed for the first request")
			}
			c.SubmitTo(0, b)
			if !c.fireBatchTimer(0) {
				t.Fatal("no batch timer armed for the second request")
			}
		})
		for r := range c.Envs {
			if got, want := c.Envs[r].Requests, []types.RequestKey{a.Key(), b.Key()}; !slices.Equal(got, want) {
				t.Fatalf("replica %d executed %v, want %v", r, got, want)
			}
		}
	})
}
