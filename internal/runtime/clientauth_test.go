package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/byz"
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// The keys the attacks below write, one per attack; no honest client touches
// them.
const (
	forgedKey = 900 + iota
	impersonatedKey
	tamperedKey
	macAttackKey
	blindKey
)

// attackReqNo is the request number every attack uses, far above what the
// honest clients reach.
const attackReqNo = 1 << 20

// authCluster boots row v at f = 1 with clients 1, 2 and 3, replica 0 running
// wrap around its protocol when wrap is set. Timers are short: each row below
// costs at least one view change.
func authCluster(t *testing.T, v protocols.Variant, wrap func(engine.Config, engine.Protocol) engine.Protocol) *Cluster {
	t.Helper()
	const f = 1
	n := v.Meta.Replicas(f)
	ecfg := engine.DefaultConfig(n, f)
	ecfg.Parallel = v.Parallel()
	ecfg.BatchSize = 1
	ecfg.ViewChangeTimeout = 200 * time.Millisecond
	cl, err := NewCluster(ClusterConfig{
		N: n, F: f,
		Engine:         ecfg,
		NewProtocol:    v.New,
		Replies:        v.Replies(n, f).Fast,
		Clients:        []types.ClientID{1, 2, 3},
		ClientRetry:    400 * time.Millisecond,
		TrustedProfile: trusted.ProfileSGXEnclave,
		KeepLog:        v.KeepLog(),
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	if wrap != nil {
		old := cl.Nodes[0]
		old.Stop()
		old.cfg.Transport.Close()
		cfg := old.cfg
		cfg.Transport = cl.Hub.Attach(transport.ReplicaAddr(0), 0)
		inner := cfg.NewProtocol
		cfg.NewProtocol = func(c engine.Config) engine.Protocol { return wrap(c, inner(c)) }
		cl.Nodes[0] = NewNode(cfg)
	}
	return cl
}

// update encodes a write of value at key.
func update(key uint64, value string) []byte {
	return (&kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: []byte(value)}).Encode()
}

// authenticated is client c's request reqNo writing value at key, with its
// vector.
func authenticated(t *testing.T, cl *Cluster, c types.ClientID, reqNo uint64, key uint64, value string) *types.ClientRequest {
	t.Helper()
	auth, err := cl.Keyring.ClientAuthenticator(c)
	if err != nil {
		t.Fatal(err)
	}
	req := &types.ClientRequest{Client: c, ReqNo: reqNo, Op: update(key, value)}
	req.Sig = auth.Authenticate(crypto.RequestDigest(req))
	return req
}

// rawClient attaches a client endpoint that sends what it is given and
// ignores every reply.
func rawClient(cl *Cluster, id types.ClientID) transport.Transport {
	tp := cl.Hub.Attach(transport.ClientAddr(uint64(id)), 0)
	tp.SetHandler(func(*wire.Envelope) {})
	return tp
}

// send delivers req to replica r, as a first send and as a resend.
func send(tp transport.Transport, r int, req *types.ClientRequest) {
	to := transport.ReplicaAddr(int32(r))
	tp.Send(to, &wire.Envelope{Client: req.Client, IsClient: true, Msg: req})
	tp.Send(to, &wire.Envelope{Client: req.Client, IsClient: true, Msg: &types.ClientResend{Request: req}})
}

// honestLoad runs three writes from each of clients 1 and 2 at once; every one
// must complete.
func honestLoad(t *testing.T, cl *Cluster) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, id := range []types.ClientID{1, 2} {
		client := cl.NewClient(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				out, err := client.Submit(ctx, update(uint64(id)*10+uint64(i), "v"))
				cancel()
				if err == nil && string(out) != "OK" {
					err = fmt.Errorf("result %q", out)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d write %d: %w", id, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// written reports the replicas among rs whose record at key is no longer the
// one a fresh store holds; call it once the cluster is stopped.
func written(cl *Cluster, key uint64, rs ...int) []int {
	var out []int
	read := (&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode()
	pristine := string(kvstore.New(1000).Apply(read))
	for _, r := range rs {
		if string(cl.Nodes[r].Store().Apply(read)) != pristine {
			out = append(out, r)
		}
	}
	return out
}

// backups lists every replica but replica 0, the primary of view 0.
func backups(cl *Cluster) []int {
	rs := make([]int, 0, cl.N()-1)
	for r := 1; r < cl.N(); r++ {
		rs = append(rs, r)
	}
	return rs
}

// viewChanges is the most views any running replica has installed.
func viewChanges(cl *Cluster) uint64 {
	var most uint64
	for _, p := range cl.Probe() {
		if p.Up {
			most = max(most, p.Status.ViewChanges)
		}
	}
	return most
}

// TestForgedRequestsNeverExecute runs every registry row at f = 1 with a
// request-forging primary, while client 3 impersonates client 1 and sends a
// tampered copy of its own request to every replica, first and as a resend.
// No forged request may execute on an honest replica, and every honest
// client's request must complete: the backups refuse the forger's proposal
// and vote it out.
func TestForgedRequestsNeverExecute(t *testing.T) {
	for _, v := range protocols.All() {
		t.Run(protocols.Key(v.Meta.Name), func(t *testing.T) {
			cl := authCluster(t, v, func(c engine.Config, inner engine.Protocol) engine.Protocol {
				return &byz.ForgingPrimary{Inner: inner, N: c.N, Victim: 2, ReqNo: attackReqNo,
					Op: update(forgedKey, "forged")}
			})
			auth3, err := cl.Keyring.ClientAuthenticator(3)
			if err != nil {
				t.Fatal(err)
			}
			attacker := rawClient(cl, 3)
			impersonated := byz.Impersonate(auth3, 1, attackReqNo, update(impersonatedKey, "impersonated"))
			tampered := byz.Tamper(authenticated(t, cl, 3, attackReqNo, tamperedKey, "original"))
			for r := 0; r < cl.N(); r++ {
				send(attacker, r, impersonated)
				send(attacker, r, tampered)
			}
			honestLoad(t, cl)
			cl.Stop()
			for key, name := range map[uint64]string{forgedKey: "forged", impersonatedKey: "impersonated", tamperedKey: "tampered"} {
				if rs := written(cl, key, backups(cl)...); len(rs) != 0 {
					t.Errorf("the %s request executed on honest replicas %v", name, rs)
				}
			}
		})
	}
}

// TestMACAttackCostsOneViewChange pins client-authenticator-liveness on every
// registry row at f = 1, with every replica honest: client 3 sends the
// primary a request whose vector is valid there only (byz.MACAttack). The
// primary batches it and every backup refuses that proposal, so the attack
// costs the view change that replaces an honest primary; honest requests
// still complete, and the request executes on no backup. Each attack costs
// one more: nothing blames the client.
func TestMACAttackCostsOneViewChange(t *testing.T) {
	for _, v := range protocols.All() {
		t.Run(protocols.Key(v.Meta.Name), func(t *testing.T) {
			cl := authCluster(t, v, nil)
			attack := byz.MACAttack(authenticated(t, cl, 3, attackReqNo, macAttackKey, "attack"), 0)
			send(rawClient(cl, 3), 0, attack)
			honestLoad(t, cl)
			views := viewChanges(cl)
			cl.Stop()
			t.Logf("view changes: %d", views)
			if views != 1 {
				t.Errorf("%d view changes, want the 1 that replaces the primary", views)
			}
			if rs := written(cl, macAttackKey, backups(cl)...); len(rs) != 0 {
				t.Errorf("the MAC-attack request executed on backups %v", rs)
			}
		})
	}
}

// executed is every running replica's LastExecuted, by replica id.
func executed(cl *Cluster) []types.SeqNum {
	out := make([]types.SeqNum, cl.N())
	for _, p := range cl.Probe() {
		out[p.ID] = p.Status.LastExecuted
	}
	return out
}

// TestBlindedBackupStallsForGood pins the other half of
// client-authenticator-liveness on every registry row at f = 1, with every
// replica honest. Client 3 sends the primary a request whose vector is valid
// everywhere but at the last backup (byz.Blind). The request commits without
// that backup, which refuses the proposal and, with no state transfer, never
// executes again: honest requests still complete on the others, and a second
// blinded request, aimed at another backup, stops the group.
func TestBlindedBackupStallsForGood(t *testing.T) {
	for _, v := range protocols.All() {
		t.Run(protocols.Key(v.Meta.Name), func(t *testing.T) {
			cl := authCluster(t, v, nil)
			victim := cl.N() - 1
			attacker := rawClient(cl, 3)
			send(attacker, 0, byz.Blind(authenticated(t, cl, 3, attackReqNo, blindKey, "blind"), types.ReplicaID(victim)))
			// The blinded request is slot 1 before any honest one is sent.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				exec := executed(cl)
				if min(exec[0], exec[victim-1]) >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the blinded request did not execute: %v", exec)
				}
			}
			honestLoad(t, cl)
			time.Sleep(5 * cl.cfg.Engine.ViewChangeTimeout)
			exec := executed(cl)
			t.Logf("executed after one blinded request: %v", exec)
			if exec[victim] != 0 {
				t.Errorf("backup %d executed through slot %d, want it stalled before slot 1", victim, exec[victim])
			}
			for r, e := range exec[:victim] {
				if e < 7 {
					t.Errorf("replica %d executed through slot %d, want the blinded request and six honest writes", r, e)
				}
			}

			second := authenticated(t, cl, 3, attackReqNo+1, blindKey, "blind again")
			send(attacker, 0, byz.Blind(second, types.ReplicaID(victim-1)))
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if _, err := cl.NewClient(1).Submit(ctx, update(19, "v")); err == nil {
				t.Errorf("an honest write completed after two backups were blinded")
			}
			t.Logf("executed after two: %v, view changes: %d", executed(cl), viewChanges(cl))
		})
	}
}
