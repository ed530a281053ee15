// Package types defines the identifiers, digests and protocol messages shared
// by every consensus protocol in this repository. It has no dependencies so
// that the crypto, trusted-component, simulator and protocol packages can all
// build on it without cycles.
package types

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// ReplicaID identifies a replica within a cluster. Replicas are numbered
// 0..n-1; the primary of view v is replica v mod n.
type ReplicaID int32

// ClientID identifies a client of the replicated service.
type ClientID uint64

// View numbers the configuration epochs of a primary-backup protocol. The
// primary of view v is replica (v mod n).
type View uint64

// SeqNum is a consensus sequence (slot) number. Slot numbering starts at 1;
// 0 means "no slot".
type SeqNum uint64

// Digest is a SHA-256 hash of a message, batch or state snapshot.
type Digest [32]byte

// ZeroDigest is the digest of "nothing" (all zero bytes).
var ZeroDigest Digest

// String returns a short hex prefix of the digest for logging.
func (d Digest) String() string { return hex.EncodeToString(d[:6]) }

// IsZero reports whether the digest is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// Primary returns the primary replica of view v in a cluster of n replicas.
func Primary(v View, n int) ReplicaID { return ReplicaID(uint64(v) % uint64(n)) }

// QuorumRule captures the reply threshold a client must collect before it
// accepts a result, and the vote threshold replicas need between phases.
// These are the knobs the paper turns: trust-bft protocols use f+1
// everywhere, FlexiTrust uses 2f+1 votes with f+1 (Flexi-BFT) or 2f+1
// (Flexi-ZZ) client replies, Zyzzyva's fast path needs all n replies.
type QuorumRule struct {
	// Votes is the number of matching protocol votes (Prepare/Commit)
	// needed to advance a phase.
	Votes int
	// Replies is the number of matching client responses needed to accept
	// a transaction result.
	Replies int
}

// Attestation is a trusted component's signed statement binding a counter
// value (or log slot) to a message digest: ⟨Attest(q, k, x)⟩_t in the paper.
// Proof is the cryptographic material; its interpretation belongs to the
// trusted package (HMAC in simulation, Ed25519 in the real runtime).
type Attestation struct {
	Replica ReplicaID // whose trusted component issued this
	Counter uint32    // counter / log identifier q
	Epoch   uint32    // counter incarnation; bumped by Create() after view change
	Value   uint64    // counter value / log slot k
	Digest  Digest    // message digest x bound to k
	Proof   []byte
}

// String renders the attestation for logs and test failures.
func (a *Attestation) String() string {
	if a == nil {
		return "<nil attestation>"
	}
	return fmt.Sprintf("attest{r%d q%d.%d k=%d %s}", a.Replica, a.Counter, a.Epoch, a.Value, a.Digest)
}

// AttestationLen is the length of an attested statement's encoding.
const AttestationLen = 4 + 4 + 4 + 8 + 32

// Bytes returns the canonical byte encoding of the attested statement
// (everything except the proof), used as the signing payload.
func (a *Attestation) Bytes() []byte { return a.AppendBytes(make([]byte, 0, AttestationLen)) }

// AppendBytes appends the encoding Bytes returns to dst.
func (a *Attestation) AppendBytes(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Replica))
	dst = binary.BigEndian.AppendUint32(dst, a.Counter)
	dst = binary.BigEndian.AppendUint32(dst, a.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, a.Value)
	return append(dst, a.Digest[:]...)
}

// MsgType enumerates every message kind exchanged by the protocols.
type MsgType uint8

// Message kinds. A single shared enum keeps the wire codec and the
// simulator's dispatch tables simple; each protocol uses the subset it needs.
const (
	MsgInvalid MsgType = iota
	MsgClientRequest
	MsgRequestBatch
	MsgPreprepare
	MsgPrepare
	MsgCommit
	MsgResponse
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgCommitCert
	MsgLocalCommit
	MsgClientResend
	MsgForward
	MsgHello
	MsgLeaseRead
	MsgLeaseReadReply
	MsgWindowCert

	// NumMsgTypes is one past the last kind: the size of a table indexed by
	// MsgType, and the end of an enumeration of the kinds.
	NumMsgTypes
)

var msgTypeNames = [NumMsgTypes]string{
	MsgInvalid:        "Invalid",
	MsgClientRequest:  "ClientRequest",
	MsgRequestBatch:   "RequestBatch",
	MsgPreprepare:     "Preprepare",
	MsgPrepare:        "Prepare",
	MsgCommit:         "Commit",
	MsgResponse:       "Response",
	MsgCheckpoint:     "Checkpoint",
	MsgViewChange:     "ViewChange",
	MsgNewView:        "NewView",
	MsgCommitCert:     "CommitCert",
	MsgLocalCommit:    "LocalCommit",
	MsgClientResend:   "ClientResend",
	MsgForward:        "Forward",
	MsgHello:          "Hello",
	MsgLeaseRead:      "LeaseRead",
	MsgLeaseReadReply: "LeaseReadReply",
	MsgWindowCert:     "WindowCert",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is implemented by every protocol message.
type Message interface {
	Type() MsgType
}

// ClientRequest is an authenticated transaction ⟨T⟩_c submitted by a client.
type ClientRequest struct {
	Client    ClientID
	ReqNo     uint64 // client-local sequence number; (Client, ReqNo) is unique
	Op        []byte // serialized state-machine operation
	Timestamp int64  // client send time (ns in simulation virtual time)
	Sig       []byte // authenticator vector over (Client, ReqNo, Op): one entry per replica (crypto.ClientAuthenticator)

	// digest caches the request's canonical digest (crypto.RequestDigest),
	// computed once at batcher admission and reused by every later
	// batch-digest or response-path computation over the same request.
	// It never crosses the wire (the codec in internal/wire encodes the five
	// fields above and nothing else; a decoded request starts with no memo);
	// in-process transports deliver the same request object to several
	// node goroutines, so digestState publishes it: the first writer claims
	// the memo (digestEmpty → digestWriting), fills digest and then marks
	// it digestReady, the one state readers trust.
	digest      Digest
	digestState atomic.Uint32
}

const digestEmpty, digestWriting, digestReady uint32 = 0, 1, 2

// Type implements Message.
func (*ClientRequest) Type() MsgType { return MsgClientRequest }

// CachedDigest returns the memoized canonical digest, if one has been
// computed for this in-memory request.
func (r *ClientRequest) CachedDigest() (Digest, bool) {
	if r.digestState.Load() == digestReady {
		return r.digest, true
	}
	return Digest{}, false
}

// MemoizeDigest records the request's canonical digest for reuse. Of
// concurrent callers, which all computed the same digest, the first records
// it and the rest leave it be.
func (r *ClientRequest) MemoizeDigest(d Digest) {
	if r.digestState.CompareAndSwap(digestEmpty, digestWriting) {
		r.digest = d
		r.digestState.Store(digestReady)
	}
}

// Key returns the unique identity of this request.
func (r *ClientRequest) Key() RequestKey { return RequestKey{r.Client, r.ReqNo} }

// RequestKey uniquely identifies a client request.
type RequestKey struct {
	Client ClientID
	ReqNo  uint64
}

// RequestBatch carries several client requests in one transport frame. The
// simulator's client pool uses it to aggregate closed-loop client sends, and
// ResilientDB-style client batching maps onto it as well.
type RequestBatch struct {
	Requests []*ClientRequest
}

// Type implements Message.
func (*RequestBatch) Type() MsgType { return MsgRequestBatch }

// Batch is an ordered group of client requests proposed as one consensus
// value, plus its digest. The digest covers every request in order.
type Batch struct {
	Requests []*ClientRequest
	Digest   Digest
}

// Len returns the number of requests in the batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Requests)
}

// Preprepare is the primary's proposal binding a batch to (view, seq).
// Trust-based protocols attach the trusted component's attestation; for
// trusted-log protocols (PBFT-EA) the attestation doubles as the log entry
// proof.
type Preprepare struct {
	View   View
	Seq    SeqNum
	Batch  *Batch
	Attest *Attestation // nil for plain BFT protocols (PBFT, Zyzzyva)
	Sig    []byte       // primary's signature (real runtime)
}

// Type implements Message.
func (*Preprepare) Type() MsgType { return MsgPreprepare }

// Prepare is a backup's vote supporting a Preprepare. In trust-bft protocols
// each replica attaches its own trusted attestation; in FlexiTrust protocols
// it relays the primary's.
type Prepare struct {
	View    View
	Seq     SeqNum
	Digest  Digest
	Replica ReplicaID
	Attest  *Attestation // per-replica attestation (PBFT-EA/MinBFT); nil otherwise
	Sig     []byte
}

// Type implements Message.
func (*Prepare) Type() MsgType { return MsgPrepare }

// Commit is the second all-to-all vote used by three-phase protocols.
type Commit struct {
	View    View
	Seq     SeqNum
	Digest  Digest
	Replica ReplicaID
	Attest  *Attestation
	Sig     []byte
}

// Type implements Message.
func (*Commit) Type() MsgType { return MsgCommit }

// Result is the outcome of executing one client request.
type Result struct {
	Client ClientID
	ReqNo  uint64
	Value  []byte
}

// Response carries execution results for a whole batch back to the client
// layer. The real runtime fans it out per client; the simulator's client pool
// consumes it directly. History is Zyzzyva's cumulative history digest (zero
// for other protocols).
type Response struct {
	Replica ReplicaID
	View    View
	Seq     SeqNum
	Digest  Digest // batch digest the results correspond to
	History Digest
	Results []Result
	// Speculative marks speculative execution (Zyzzyva/MinZZ/Flexi-ZZ fast
	// path) where the client must apply its own commit rule.
	Speculative bool
	Sig         []byte
}

// Type implements Message.
func (*Response) Type() MsgType { return MsgResponse }

// Checkpoint advertises a replica's executed-state digest at a checkpoint
// sequence number, enabling log truncation.
type Checkpoint struct {
	Replica     ReplicaID
	Seq         SeqNum
	StateDigest Digest
	Attest      *Attestation // trusted counter/log state proof (trust-bft)
	Sig         []byte
}

// Type implements Message.
func (*Checkpoint) Type() MsgType { return MsgCheckpoint }

// PreparedProof certifies that a batch was prepared: the Preprepare plus the
// vote set that backed it. View-change messages carry these so the next
// primary can re-propose.
type PreparedProof struct {
	Preprepare *Preprepare
	Prepares   []*Prepare // 2f+1 (or f+1 for trust-bft) matching prepares
	// WC, when non-empty, is a canonically encoded crypto.WindowCert: the
	// windowed attestation covering the preprepare's slot (windowed
	// FlexiTrust deployments, where preprepares carry no per-batch
	// attestation). Pre-encoded for the same reason as QC.
	WC []byte
	// QC, when non-empty, is a canonically encoded crypto.QuorumCert
	// aggregating the vote set: one compact certificate checked once in
	// place of the loose Prepares (which may then be omitted). types cannot
	// import crypto, so the certificate travels pre-encoded.
	QC []byte
}

// ViewChange asks to replace the primary of view NewView-1.
type ViewChange struct {
	Replica     ReplicaID
	NewView     View
	StableSeq   SeqNum           // last stable checkpoint
	Checkpoint  *Checkpoint      // proof of the stable checkpoint
	Prepared    []*PreparedProof // per-slot prepared certificates above StableSeq
	Preprepares []*Preprepare    // Flexi-ZZ: all preprepares received (speculative)
	Attest      *Attestation     // trusted state proof where applicable
	Sig         []byte
}

// Type implements Message.
func (*ViewChange) Type() MsgType { return MsgViewChange }

// NewView is the incoming primary's installation message: the view-change
// quorum it collected and the slots it re-proposes.
type NewView struct {
	View        View
	ViewChanges []*ViewChange
	Proposals   []*Preprepare // sorted by sequence number; no-ops fill gaps
	CounterInit *Attestation  // FlexiTrust: Create() attestation for the fresh counter
	// WindowCert, when non-empty, is a canonically encoded crypto.WindowCert
	// covering every re-proposed slot with a single attestation (windowed
	// FlexiTrust deployments; the Proposals then carry no per-batch
	// attestations). Empty when nothing is re-proposed.
	WindowCert []byte
	// Sig keeps its place in the wire format but is neither set nor read: a
	// NewView is taken only from the view's primary over the authenticated
	// channel and is never relayed, and what it carries vouches for itself
	// (signed ViewChanges, attested or recomputable proposals).
	Sig []byte
}

// Type implements Message.
func (*NewView) Type() MsgType { return MsgNewView }

// CommitCert is Zyzzyva's slow-path certificate: the client proves that
// 2f+1 replicas speculatively executed the same history so replicas can
// commit locally.
type CommitCert struct {
	Client    ClientID
	View      View
	Seq       SeqNum
	Digest    Digest
	History   Digest
	Responses []*Response // 2f+1 matching speculative responses
}

// Type implements Message.
func (*CommitCert) Type() MsgType { return MsgCommitCert }

// LocalCommit acknowledges a CommitCert.
type LocalCommit struct {
	Replica ReplicaID
	View    View
	Seq     SeqNum
	Digest  Digest
	Client  ClientID
	Sig     []byte
}

// Type implements Message.
func (*LocalCommit) Type() MsgType { return MsgLocalCommit }

// ClientResend is a client's complaint that it has not collected enough
// matching responses; replicas either answer from their cache or forward the
// request to the primary and start a view-change timer.
type ClientResend struct {
	Request *ClientRequest
}

// Type implements Message.
func (*ClientResend) Type() MsgType { return MsgClientResend }

// Forward relays a client request from a backup to the primary.
type Forward struct {
	Replica ReplicaID
	Request *ClientRequest
}

// Type implements Message.
func (*Forward) Type() MsgType { return MsgForward }

// Hello announces a node on a transport (real runtime handshake).
type Hello struct {
	Replica  ReplicaID
	Client   ClientID
	IsClient bool
}

// Type implements Message.
func (*Hello) Type() MsgType { return MsgHello }

// LeaseRead asks a lease-holding primary to answer a single-key read
// locally, without consensus (leader read leases; see internal/engine's
// LeaseTracker and the kvstore read view). The reply is valid only while the
// reader can independently confirm the lease epoch is current.
type LeaseRead struct {
	Client ClientID
	// ReadNo is the client-local lease-read sequence; (Client, ReadNo)
	// matches the reply to the request.
	ReadNo uint64
	Key    uint64
	// Fence is the highest committed sequence number the reader has observed
	// for this group. The primary must answer from a read view at or above
	// it — this is what makes the leased read linearizable with respect to
	// every write that completed before the read started.
	Fence SeqNum
}

// Type implements Message.
func (*LeaseRead) Type() MsgType { return MsgLeaseRead }

// LeaseReadStatus is the outcome of a lease-read attempt at the primary.
type LeaseReadStatus uint8

// Lease-read outcomes. Anything but OK/NotFound sends the reader down the
// consensus fallback path.
const (
	LeaseReadOK LeaseReadStatus = iota
	LeaseReadNotFound
	// LeaseReadNoLease: the replica holds no servable lease (never granted,
	// expired, or revoked by a view change / placement event).
	LeaseReadNoLease
	// LeaseReadRefused: the lease is live but this read cannot be answered
	// safely — the read view is behind the fence, the key's range is not
	// owned (released or mid-migration), or the key is under a transactional
	// intent.
	LeaseReadRefused
)

// LeaseReadReply is the primary's local answer to a LeaseRead.
type LeaseReadReply struct {
	Replica ReplicaID
	ReadNo  uint64
	Key     uint64
	// View and Epoch identify the lease the answer was served under; the
	// reader rejects the reply if its own view of the group has moved past
	// them.
	View  View
	Epoch uint64
	// Watermark is the committed sequence number of the read view the value
	// came from (>= the request's Fence whenever Status is OK or NotFound).
	Watermark SeqNum
	Status    LeaseReadStatus
	Value     []byte
	// Attest is the trusted-counter attestation minted when the lease epoch
	// was granted, letting the reader verify the grant is anchored to the
	// group's counter without a round trip (verified once per epoch).
	Attest *Attestation
}

// Type implements Message.
func (*LeaseReadReply) Type() MsgType { return MsgLeaseReadReply }

// WindowAttest publishes a windowed attestation certificate: the primary's
// single trusted-counter access covering an ordered window of batches it has
// preprepared. Replicas hold their votes (or speculative execution) for a
// slot until the covering certificate arrives and verifies. Cert is a
// canonically encoded crypto.WindowCert (types cannot import crypto).
type WindowAttest struct {
	Replica ReplicaID
	Cert    []byte
}

// Type implements Message.
func (*WindowAttest) Type() MsgType { return MsgWindowCert }

// TimerKind enumerates protocol timers.
type TimerKind uint8

// Timer kinds.
const (
	TimerNone TimerKind = iota
	// TimerViewChange fires when progress stalls and the replica should
	// suspect the primary.
	TimerViewChange
	// TimerBatch fires one BatchTimeout after the oldest pending request
	// arrived, to flush a partially filled batch at the primary that neither
	// filled nor was cut earlier by its closed loop's return.
	TimerBatch
	// TimerCheckpoint triggers periodic checkpointing.
	TimerCheckpoint
	// TimerClientRetry fires at the client library when responses are late.
	TimerClientRetry
	// TimerCommitCert fires at the client library when a batch's fast
	// quorum is late: the commit-certificate slow path.
	TimerCommitCert
	// TimerWindowFlush fires to attest a partially filled window at the
	// primary (windowed amortized attestation).
	TimerWindowFlush
)

var timerKindNames = [...]string{
	TimerNone:        "None",
	TimerViewChange:  "ViewChange",
	TimerBatch:       "Batch",
	TimerCheckpoint:  "Checkpoint",
	TimerClientRetry: "ClientRetry",
	TimerCommitCert:  "CommitCert",
	TimerWindowFlush: "WindowFlush",
}

// String implements fmt.Stringer.
func (k TimerKind) String() string {
	if int(k) < len(timerKindNames) {
		return timerKindNames[k]
	}
	return fmt.Sprintf("TimerKind(%d)", uint8(k))
}

// TimerID identifies a pending timer. The same (Kind, View, Seq, Aux) tuple
// re-arms rather than duplicates.
type TimerID struct {
	Kind TimerKind
	View View
	Seq  SeqNum
	Aux  uint64 // client id or other discriminator
}

// String implements fmt.Stringer.
func (t TimerID) String() string {
	return fmt.Sprintf("timer{%s v%d s%d a%d}", t.Kind, t.View, t.Seq, t.Aux)
}
