package byz

import (
	"bytes"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/types"
)

// Client-authentication attacks. A request carries one authenticator entry
// per replica (crypto.ClientAuthenticator), each under a key its client shares
// with that replica alone, and each replica checks only its own entry
// (common.Base.AdmitRequest). The roles below are what that leaves an
// attacker: a client that reuses genuine bytes where they do not belong, a
// primary that invents requests, and a client that makes the entries disagree
// (MACAttack, Blind).

// Impersonate is an impersonating client: a request that claims to come from
// victim but carries the vector attacker computed over the same request number
// and operation under its own keys. Every byte is genuine; the key is not
// victim's.
func Impersonate(attacker *crypto.ClientAuthenticator, victim types.ClientID, reqNo uint64, op []byte) *types.ClientRequest {
	req := &types.ClientRequest{Client: victim, ReqNo: reqNo, Op: op}
	req.Sig = attacker.Authenticate(crypto.RequestDigest(req))
	return req
}

// Tamper returns a copy of req with the last byte of its operation flipped
// and its vector left as it was: a request changed after it was
// authenticated.
func Tamper(req *types.ClientRequest) *types.ClientRequest {
	op := bytes.Clone(req.Op)
	op[len(op)-1] ^= 1
	return &types.ClientRequest{Client: req.Client, ReqNo: req.ReqNo, Op: op, Timestamp: req.Timestamp, Sig: req.Sig}
}

// MACAttack is Aardvark's "MAC attack" (Clement et al., NSDI 2009): a copy of
// req whose vector is valid at replica only and garbage everywhere else. Sent
// to the primary, it is admitted and batched there, and every backup refuses
// the proposal that carries it.
func MACAttack(req *types.ClientRequest, only types.ReplicaID) *types.ClientRequest {
	return garble(req, func(r types.ReplicaID) bool { return r != only })
}

// Blind is the MAC attack turned on one backup: a copy of req whose vector is
// valid everywhere but at victim. The proposal that carries it commits
// without victim, which refuses it and, having no state transfer, never
// executes that slot or any after it.
func Blind(req *types.ClientRequest, victim types.ReplicaID) *types.ClientRequest {
	return garble(req, func(r types.ReplicaID) bool { return r == victim })
}

// garble returns a copy of req with the entries of the replicas bad names
// made garbage.
func garble(req *types.ClientRequest, bad func(types.ReplicaID) bool) *types.ClientRequest {
	sig := bytes.Clone(req.Sig)
	for r := 0; r*crypto.AuthEntryLen < len(sig); r++ {
		if bad(types.ReplicaID(r)) {
			sig[r*crypto.AuthEntryLen] ^= 0xff
		}
	}
	return &types.ClientRequest{Client: req.Client, ReqNo: req.ReqNo, Op: req.Op, Timestamp: req.Timestamp, Sig: sig}
}

// ForgingPrimary is a request-forging primary. It runs the honest protocol
// Inner, but the first client request it receives it precedes with one of its
// own making: Op under Victim's id and request number ReqNo. It holds only its
// own crypto.Suite, which checks entries and computes none, so the vector it
// attaches is N entries of zeros; it waves the forgery past its own admission
// gate. What the backups receive is a proposal like any other, its digest
// bound to its contents, carrying a request no client sent.
type ForgingPrimary struct {
	Inner  engine.Protocol
	N      int // replicas in the group
	Victim types.ClientID
	ReqNo  uint64
	Op     []byte

	forged *types.ClientRequest
}

// Init implements engine.Protocol: Inner sees an Env whose Crypto admits the
// forgery.
func (p *ForgingPrimary) Init(env engine.Env) {
	p.forged = &types.ClientRequest{Client: p.Victim, ReqNo: p.ReqNo, Op: p.Op,
		Sig: make([]byte, p.N*crypto.AuthEntryLen)}
	p.Inner.Init(forgerEnv{Env: env, forged: crypto.RequestDigest(p.forged)})
}

// OnRequest implements engine.Protocol.
func (p *ForgingPrimary) OnRequest(req *types.ClientRequest) {
	if p.forged != nil {
		p.Inner.OnRequest(p.forged)
		p.forged = nil
	}
	p.Inner.OnRequest(req)
}

// OnMessage implements engine.Protocol.
func (p *ForgingPrimary) OnMessage(from types.ReplicaID, m types.Message) { p.Inner.OnMessage(from, m) }

// OnTimer implements engine.Protocol.
func (p *ForgingPrimary) OnTimer(id types.TimerID) { p.Inner.OnTimer(id) }

// forgerEnv is the forging primary's Env: its Crypto accepts the forgery.
type forgerEnv struct {
	engine.Env
	forged types.Digest
}

// Crypto implements engine.Env.
func (e forgerEnv) Crypto() crypto.Provider {
	return forgerCrypto{Provider: e.Env.Crypto(), forged: e.forged}
}

// forgerCrypto lies about one request's authenticator.
type forgerCrypto struct {
	crypto.Provider
	forged types.Digest
}

// VerifyClient implements crypto.Provider.
func (c forgerCrypto) VerifyClient(client types.ClientID, payload, sig []byte) bool {
	return bytes.Equal(payload, c.forged[:]) || c.Provider.VerifyClient(client, payload, sig)
}
