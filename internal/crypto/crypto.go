// Package crypto provides the cryptographic substrate the protocols rely on:
// SHA-256 digests, Ed25519 digital signatures between replicas, and AES-CMAC
// client authenticators, the MAC ResilientDB uses.
//
// Clients do not sign. A client request carries a PBFT-style authenticator
// vector (ClientAuthenticator): one AES-CMAC entry over its RequestDigest per
// replica, each under a key the client shares with that replica only, and
// each replica checks its own entry (Suite.VerifyClient). The MAC is
// deterministic on purpose: a nonce-based one keyed by ReqNo would repeat
// nonces, as every client process numbers its requests from 1. On a 2-vCPU
// Xeon with AES-NI, a 4-entry vector costs about 0.23 µs and a check about
// 0.08 µs (BenchmarkClientAuthenticate, BenchmarkVerifyClient); the truncated
// HMAC-SHA256 it replaced cost 1.0-1.15 µs and 0.25-0.3 µs.
//
// Two implementations of the Provider interface exist:
//
//   - Suite: real cryptography, used by the runtime, the TCP transport and
//     the integration tests.
//   - Nop (in the sim package): accounting-only cryptography for the
//     discrete-event simulator, where per-operation CPU cost is modeled in
//     virtual time instead of being burned for real.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"flexitrust/internal/types"
)

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) types.Digest {
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of the given byte slices.
func HashConcat(parts ...[]byte) types.Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d types.Digest
	h.Sum(d[:0])
	return d
}

// RequestDigest computes the canonical digest of a client request
// (client id, request number, operation bytes). The digest is memoized on
// the request: the batcher, the batch-digest check on delivery and the
// response path all ask for it, so it is computed once per request per
// process and answered from the request's cache thereafter.
func RequestDigest(r *types.ClientRequest) types.Digest {
	if d, ok := r.CachedDigest(); ok {
		return d
	}
	h := sha256.New()
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(r.Client))
	binary.BigEndian.PutUint64(hdr[8:16], r.ReqNo)
	h.Write(hdr[:])
	h.Write(r.Op)
	var d types.Digest
	h.Sum(d[:0])
	r.MemoizeDigest(d)
	return d
}

// BatchDigest computes the digest of a request batch: the hash of the
// concatenated request digests, which commits to both content and order.
func BatchDigest(reqs []*types.ClientRequest) types.Digest {
	h := sha256.New()
	for _, r := range reqs {
		d := RequestDigest(r)
		h.Write(d[:])
	}
	var d types.Digest
	h.Sum(d[:0])
	return d
}

// HistoryDigest chains a batch digest onto a running history digest, as in
// Zyzzyva's cumulative execution history: h_k = H(h_{k-1} || d_k).
func HistoryDigest(prev types.Digest, batch types.Digest) types.Digest {
	return HashConcat(prev[:], batch[:])
}

// Provider is the cryptographic interface protocols consume. Implementations
// must be safe for concurrent use.
type Provider interface {
	// Sign produces this node's signature over payload.
	Sign(payload []byte) []byte
	// Verify checks signer's signature over payload.
	Verify(signer types.ReplicaID, payload, sig []byte) bool
	// VerifyClient checks this replica's entry of a client's authenticator
	// vector over payload (the request's RequestDigest).
	VerifyClient(client types.ClientID, payload, sig []byte) bool
	// VerifyQC validates an aggregated quorum certificate against the
	// given vote quorum: structural checks (bitmap width, signer count)
	// plus batch verification of any carried signatures.
	VerifyQC(qc *QuorumCert, quorum int) bool
	// VerifyWC validates a windowed attestation certificate: structural
	// checks plus recomputation of the digest chain fold against the
	// attested tip. The embedded attestation's proof is verified
	// separately through engine.Env.VerifyAttestation, which holds the
	// counter authority's key.
	VerifyWC(wc *WindowCert) bool
}

// Keyring holds the long-term keys of every replica and client in a cluster.
// It is generated deterministically from a seed so that tests and the
// simulator can reconstruct identical keyrings on every node without a key
// distribution protocol.
type Keyring struct {
	n     int
	pubs  []ed25519.PublicKey
	privs []ed25519.PrivateKey
	// clientKeys holds each provisioned client's n authenticator keys, the
	// one it shares with replica r at [r*32, r*32+32).
	clientKeys map[types.ClientID][]byte
}

// NewKeyring deterministically derives keys for n replicas and the given
// client ids from seed.
func NewKeyring(seed int64, n int, clients []types.ClientID) (*Keyring, error) {
	rng := rand.New(rand.NewSource(seed))
	k := &Keyring{
		n:          n,
		pubs:       make([]ed25519.PublicKey, n),
		privs:      make([]ed25519.PrivateKey, n),
		clientKeys: make(map[types.ClientID][]byte, len(clients)),
	}
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rngReader{rng})
		if err != nil {
			return nil, fmt.Errorf("generating replica %d key: %w", i, err)
		}
		k.pubs[i], k.privs[i] = pub, priv
	}
	// Client keys come from the seed, not the stream above, so provisioning
	// clients moves no replica key.
	root := clientKeyRoot(seed)
	for _, c := range clients {
		keys := make([]byte, 0, n*sha256.Size)
		for r := 0; r < n; r++ {
			keys = clientKey(keys, root, c, types.ReplicaID(r))
		}
		k.clientKeys[c] = keys
	}
	return k, nil
}

// clientKeyRoot is the secret every client-replica key is derived from.
func clientKeyRoot(seed int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	root := HashConcat([]byte("flexitrust client authenticator keys"), buf[:])
	return root[:]
}

// clientKey appends the key client c shares with replica r:
// HMAC-SHA256(root, c || r).
func clientKey(dst, root []byte, c types.ClientID, r types.ReplicaID) []byte {
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(c))
	binary.BigEndian.PutUint32(buf[8:12], uint32(r))
	m := hmac.New(sha256.New, root)
	m.Write(buf[:])
	return m.Sum(dst)
}

// rngReader adapts math/rand to io.Reader for deterministic key generation.
type rngReader struct{ r *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	r.r.Read(p)
	return len(p), nil
}

var _ io.Reader = rngReader{}

// N returns the number of replicas in the keyring.
func (k *Keyring) N() int { return k.n }

// PublicKey returns replica r's public key.
func (k *Keyring) PublicKey(r types.ReplicaID) ed25519.PublicKey { return k.pubs[r] }

// AuthEntryLen is the length of one entry of a client authenticator vector:
// a whole AES-CMAC tag. A vector for n replicas is n*AuthEntryLen bytes.
const AuthEntryLen = 16

// ClientAuthenticator computes one client's authenticator vectors: one
// AES-CMAC state per replica, keyed with the 32-byte key the client shares
// with it. It is not safe for concurrent use.
type ClientAuthenticator struct {
	macs []cmac
}

// ClientAuthenticator returns client c's authenticator, or an error when c
// has no keys in this ring.
func (k *Keyring) ClientAuthenticator(c types.ClientID) (*ClientAuthenticator, error) {
	keys, ok := k.clientKeys[c]
	if !ok {
		return nil, fmt.Errorf("no key for client %d", c)
	}
	a := &ClientAuthenticator{macs: make([]cmac, k.n)}
	for r := range a.macs {
		a.macs[r] = newCMAC(keys[r*sha256.Size : (r+1)*sha256.Size])
	}
	return a, nil
}

// Authenticate returns the vector over digest d (a RequestDigest): entry r,
// at [r*AuthEntryLen, (r+1)*AuthEntryLen), is what replica r checks.
func (a *ClientAuthenticator) Authenticate(d types.Digest) []byte {
	return a.AppendAuthenticator(make([]byte, 0, len(a.macs)*AuthEntryLen), d)
}

// AppendAuthenticator appends the vector Authenticate returns to dst.
func (a *ClientAuthenticator) AppendAuthenticator(dst []byte, d types.Digest) []byte {
	for r := range a.macs {
		dst = append(dst, a.macs[r].sum(d[:])[:]...)
	}
	return dst
}

// entryCheck is a replica's AES-CMAC state for one client, keyed with the
// key the two share.
type entryCheck struct {
	mu  sync.Mutex
	mac cmac
}

// Suite is a real-cryptography Provider bound to one replica's identity.
type Suite struct {
	self types.ReplicaID
	ring *Keyring
	// clients holds this replica's keyed state per provisioned client; the
	// map is never written after NewSuite.
	clients map[types.ClientID]*entryCheck
}

// NewSuite returns the Provider for replica self over ring.
func NewSuite(ring *Keyring, self types.ReplicaID) *Suite {
	s := &Suite{self: self, ring: ring, clients: make(map[types.ClientID]*entryCheck, len(ring.clientKeys))}
	for c, keys := range ring.clientKeys {
		key := keys[int(self)*sha256.Size : (int(self)+1)*sha256.Size]
		s.clients[c] = &entryCheck{mac: newCMAC(key)}
	}
	return s
}

// Sign implements Provider.
func (s *Suite) Sign(payload []byte) []byte {
	return ed25519.Sign(s.ring.privs[s.self], payload)
}

// Verify implements Provider.
func (s *Suite) Verify(signer types.ReplicaID, payload, sig []byte) bool {
	if int(signer) < 0 || int(signer) >= s.ring.n {
		return false
	}
	return ed25519.Verify(s.ring.pubs[signer], payload, sig)
}

// VerifyClient implements Provider: sig must be a whole vector for this ring,
// and its entry for this replica the client's AES-CMAC tag of payload. The
// other entries are not this replica's to check.
func (s *Suite) VerifyClient(client types.ClientID, payload, sig []byte) bool {
	e, ok := s.clients[client]
	if !ok || len(sig) != s.ring.n*AuthEntryLen {
		return false
	}
	entry := sig[int(s.self)*AuthEntryLen : (int(s.self)+1)*AuthEntryLen]
	e.mu.Lock()
	ok = subtle.ConstantTimeCompare(e.mac.sum(payload)[:], entry) == 1
	e.mu.Unlock()
	return ok
}

// VerifyQC implements Provider: the certificate must pass its structural
// Check against this keyring's cluster size, and every carried signature
// must verify over the certificate payload under the matching signer's key.
// An empty signature list is accepted — it is the transport-authenticated
// form, whose trust rests on the attested proposal the certificate
// accompanies.
func (s *Suite) VerifyQC(qc *QuorumCert, quorum int) bool {
	if qc == nil || qc.Check(s.ring.n, quorum) != nil {
		return false
	}
	if len(qc.Sigs) == 0 {
		return true
	}
	payload := qc.Payload()
	for i, signer := range qc.Signers() {
		if !s.Verify(signer, payload, qc.Sigs[i]) {
			return false
		}
	}
	return true
}

// VerifyWC implements Provider: structural validity plus the chain fold
// matching the attested digest (both inside WindowCert.Check). The
// attestation proof itself is checked by the caller's counter authority,
// exactly as quorum-certificate trust rests on the attested proposal.
func (s *Suite) VerifyWC(wc *WindowCert) bool {
	return wc != nil && wc.Check() == nil
}
