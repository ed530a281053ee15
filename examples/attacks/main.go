// Attacks: reproduces the paper's two analysis findings live, in the
// discrete-event simulator.
//
//  1. Section 5 — restricted responsiveness: with n = 2f+1 (MinBFT), a
//     byzantine primary plus delayed links leave a client forever short of
//     its f+1 matching responses even though consensus committed. The same
//     attack shape against Flexi-BFT (n = 3f+1) is harmless.
//  2. Section 6 — loss of safety under rollback: a byzantine MinBFT primary
//     rolls its SGX-class trusted counter back and equivocates, driving two
//     honest replicas to execute different transactions at sequence 1.
//     TPM-class (rollback-protected) hardware or FlexiTrust quorums stop it.
package main

import (
	"fmt"
	"time"

	"flexitrust/internal/byz"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols"
	"flexitrust/internal/sim"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/workload"
)

// cluster builds a tiny simulated cluster (f = 1) of the named protocol, with
// replica 0 replaced by attacker when one is given.
func cluster(name string, profile trusted.Profile, attacker engine.Protocol) *sim.Cluster {
	row, err := protocols.Lookup(name)
	if err != nil {
		panic(err)
	}
	const f = 1
	n := row.Meta.Replicas(f)
	ecfg := engine.DefaultConfig(n, f)
	ecfg.BatchSize = 1
	ecfg.BatchTimeout = time.Millisecond
	wl := workload.DefaultConfig()
	wl.Records = 1000
	return sim.NewCluster(sim.Config{
		N: n, F: f, Engine: ecfg,
		NewProtocol: func(id types.ReplicaID, cfg engine.Config) engine.Protocol {
			if id == 0 && attacker != nil {
				return attacker
			}
			return row.New(cfg)
		},
		Replies:        f + 1,
		ClientRetry:    2400 * time.Millisecond,
		TrustedProfile: profile,
		Clients:        1, Workload: wl, Seed: 7,
	})
}

// responsiveness demonstrates the Section 5 attack.
func responsiveness() {
	fmt.Println("== Section 5: restricted responsiveness ==")

	// MinBFT, n = 2f+1 = 3. Byzantine primary 0 withholds from replica 2
	// and from the clients; replica 1's messages to 2 are delayed.
	c := cluster("MinBFT", trusted.ProfileSGXEnclave, nil)
	c.SetSendFilter(0, byz.WithholdFrom(2, 3))
	c.DelayLink(1, 2, time.Hour, 0, nil)
	res := c.Run(0, 3*time.Second)
	fmt.Printf("MinBFT   (2f+1): client completed %d txns after 3s; re-broadcasts: %d\n",
		res.Completed, res.Resends)
	fmt.Printf("          consensus itself committed at replica 1 (digest %s) — the\n",
		c.StateDigestOf(1))
	fmt.Println("          system is live but unresponsive to its client")

	// The identical attack against Flexi-BFT, n = 3f+1 = 4.
	c2 := cluster("Flexi-BFT", trusted.ProfileSGXEnclave, nil)
	c2.SetSendFilter(0, byz.WithholdFrom(3, 4))
	c2.DelayLink(1, 3, time.Hour, 0, nil)
	c2.DelayLink(2, 3, time.Hour, 0, nil)
	res2 := c2.Run(0, 3*time.Second)
	fmt.Printf("Flexi-BFT(3f+1): client completed %d txns under the same attack\n\n", res2.Completed)
}

// rollback demonstrates the Section 6 attack.
func rollback() {
	fmt.Println("== Section 6: loss of safety under rollback ==")
	opT := (&kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("TTTTTTTT")}).Encode()
	opA := (&kvstore.Op{Code: kvstore.OpUpdate, Key: 1, Value: []byte("'T'T'T'T")}).Encode()

	run := func(label string, profile trusted.Profile) {
		attacker := &byz.RollbackPrimary{
			Mode: byz.ModeAppend, OpT: opT, OpTalt: opA,
			GroupA: []types.ReplicaID{1}, GroupB: []types.ReplicaID{2},
			ReplyToClient: true,
		}
		c := cluster("MinBFT", profile, attacker)
		c.Run(0, time.Second)
		d1, d2 := c.StateDigestOf(1), c.StateDigestOf(2)
		switch {
		case attacker.RollbackErr != nil:
			fmt.Printf("%s: rollback blocked by hardware (%v) — safety holds\n", label, attacker.RollbackErr)
		case !d1.IsZero() && !d2.IsZero() && d1 != d2:
			fmt.Printf("%s: SAFETY VIOLATION — replica 1 executed T (%s), replica 2 executed T' (%s) at seq 1\n",
				label, d1, d2)
		default:
			fmt.Printf("%s: no divergence (d1=%s d2=%s)\n", label, d1, d2)
		}
	}
	run("MinBFT on SGX-class enclave  ", trusted.ProfileSGXEnclave)
	run("MinBFT on TPM-class hardware ", trusted.ProfileTPM.WithAccessCost(time.Microsecond))

	// FlexiTrust: the rollback succeeds but quorum intersection keeps every
	// honest replica on the same history.
	attacker := &byz.RollbackPrimary{
		Mode: byz.ModeAppendF, OpT: opT, OpTalt: opA,
		GroupA: []types.ReplicaID{1, 2}, GroupB: []types.ReplicaID{3},
		ReplyToClient: true,
	}
	c := cluster("Flexi-BFT", trusted.ProfileSGXEnclave, attacker)
	c.Run(0, time.Second)
	fmt.Printf("Flexi-BFT on SGX-class enclave: rollback happened, but honest replicas agree "+
		"(r1=%s r2=%s, r3 committed nothing: %v)\n",
		c.StateDigestOf(1), c.StateDigestOf(2), c.StateDigestOf(3).IsZero())
}

func main() {
	responsiveness()
	rollback()
}
