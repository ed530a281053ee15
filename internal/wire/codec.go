package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"flexitrust/internal/types"
)

// This file is the body codec: the primitives of the format spec in the
// package comment, then one encode/decode pair per struct in the order the
// spec lists them. Encoders append to writer.b; decoders consume reader.b
// and fill a struct in place so lists can decode into one slab.

// Minimum encoded size of each list element type: what an element costs on
// the wire when every varint is one byte, every byte field and list empty
// and every optional absent. reader.count divides the bytes remaining by it,
// which is what bounds a decoded list by the frame that carried it.
const (
	minRequest       = 1 + 1 + 1 + 8 + 1         // client, reqno, op, timestamp, sig
	minPreprepare    = 1 + 1 + 1 + 1 + 1         // view, seq, batch?, attest?, sig
	minVote          = 1 + 1 + 32 + 1 + 1 + 1    // view, seq, digest, replica, attest?, sig
	minResult        = 1 + 1 + 1                 // client, reqno, value
	minResponse      = 1 + 1 + 1 + 32 + 32 + 3   // replica, view, seq, digests, flags, results, sig
	minPreparedProof = 1 + 1 + 1 + 1             // preprepare?, prepares, wc, qc
	minViewChange    = 1 + 1 + 1 + 1 + 1 + 1 + 2 // ids, checkpoint?, two lists, attest?, sig
)

// maxHelloBody is the largest body a Hello envelope can encode to: kind and
// flags, then From (uv32: up to 5 bytes), Client (uv: up to 10), and Hello's
// Replica, Client and flags. It caps what a connection may make the reader
// allocate before it has said who it is.
const maxHelloBody = 2 + 5 + 10 + (5 + 10 + 1)

// Flag bits. A flags byte with any other bit set is rejected.
const (
	flagIsClient    = 1 << 0 // envelope flags, Hello flags
	flagSpeculative = 1 << 0 // Response flags
)

var (
	errNilElement = errors.New("nil list element")
	errTruncated  = errors.New("truncated")
)

// writer appends the encoding of one envelope to b. The first error sticks;
// everything after it is a no-op the caller discards.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u8(v byte)              { w.b = append(w.b, v) }
func (w *writer) uv(v uint64)            { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) i64(v int64)            { w.b = binary.BigEndian.AppendUint64(w.b, uint64(v)) }
func (w *writer) digest(d *types.Digest) { w.b = append(w.b, d[:]...) }

// replica encodes a ReplicaID as the uv32 of its two's-complement bits.
func (w *writer) replica(r types.ReplicaID) { w.uv(uint64(uint32(r))) }

func (w *writer) bytes(p []byte) {
	w.uv(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *writer) flag(set bool, bit byte) {
	if set {
		w.u8(bit)
	} else {
		w.u8(0)
	}
}

// writeOpt encodes an optional struct: a presence byte, then the struct.
func writeOpt[T any](w *writer, m *T, elem func(*writer, *T)) {
	if m == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	elem(w, m)
}

// writeList encodes a list of struct pointers: a count, then each element.
// A nil element has no encoding.
func writeList[T any](w *writer, list []*T, elem func(*writer, *T)) {
	w.uv(uint64(len(list)))
	for _, m := range list {
		if m == nil {
			if w.err == nil {
				w.err = errNilElement
			}
			return
		}
		elem(w, m)
	}
}

// reader consumes the body of one frame. The first error sticks and empties
// b, so every later read returns zero and every later count is zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail(errTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// uv reads a varint and rejects every encoding but the shortest, so that a
// value has one encoding and re-encoding a decoded frame reproduces it.
func (r *reader) uv() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errTruncated)
		return 0
	case n < 0:
		r.fail(errors.New("varint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(errors.New("varint is not minimal"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) uv32() uint32 {
	v := r.uv()
	if v > math.MaxUint32 {
		r.fail(errors.New("32-bit field out of range"))
		return 0
	}
	return uint32(v)
}

func (r *reader) replica() types.ReplicaID { return types.ReplicaID(r.uv32()) }

func (r *reader) i64() int64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return int64(v)
}

func (r *reader) digest(d *types.Digest) {
	if len(r.b) < len(d) {
		r.fail(errTruncated)
		return
	}
	copy(d[:], r.b)
	r.b = r.b[len(d):]
}

// bytes returns a length-prefixed field as a sub-slice of the frame body —
// no allocation, and a length beyond the bytes remaining is an error before
// anything is sized by it. An empty field decodes as nil.
func (r *reader) bytes() []byte {
	n := r.uv()
	if n > uint64(len(r.b)) {
		r.fail(errTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// flag reads a flags byte in which only bit may be set.
func (r *reader) flag(bit byte) bool {
	v := r.u8()
	if v&^bit != 0 {
		r.fail(fmt.Errorf("unknown flag bits %#x", v&^bit))
	}
	return v&bit != 0
}

// count reads a list length and bounds it by the elements that could still
// fit in the bytes remaining, so no list is allocated larger than the frame
// could fill.
func (r *reader) count(minSize int) int {
	n := r.uv()
	if n > uint64(len(r.b)/minSize) {
		r.fail(fmt.Errorf("list of %d elements cannot fit in %d bytes", n, len(r.b)))
		return 0
	}
	return int(n)
}

// readOpt decodes an optional struct.
func readOpt[T any](r *reader, elem func(*reader, *T)) *T {
	if !r.flag(1) {
		return nil
	}
	m := new(T)
	elem(r, m)
	return m
}

// readList decodes a list of struct pointers into one slab: two allocations
// however long the list. An empty list decodes as nil.
func readList[T any](r *reader, minSize int, elem func(*reader, *T)) []*T {
	n := r.count(minSize)
	if n == 0 {
		return nil
	}
	slab := make([]T, n)
	list := make([]*T, n)
	for i := range slab {
		elem(r, &slab[i])
		list[i] = &slab[i]
	}
	if r.err != nil {
		return nil
	}
	return list
}

// --- nested structs ---

func (w *writer) attestation(a *types.Attestation) {
	w.replica(a.Replica)
	w.uv(uint64(a.Counter))
	w.uv(uint64(a.Epoch))
	w.uv(a.Value)
	w.digest(&a.Digest)
	w.bytes(a.Proof)
}

func (r *reader) attestation(a *types.Attestation) {
	a.Replica = r.replica()
	a.Counter = r.uv32()
	a.Epoch = r.uv32()
	a.Value = r.uv()
	r.digest(&a.Digest)
	a.Proof = r.bytes()
}

func (w *writer) request(m *types.ClientRequest) {
	w.uv(uint64(m.Client))
	w.uv(m.ReqNo)
	w.bytes(m.Op)
	w.i64(m.Timestamp)
	w.bytes(m.Sig)
}

func (r *reader) request(m *types.ClientRequest) {
	m.Client = types.ClientID(r.uv())
	m.ReqNo = r.uv()
	m.Op = r.bytes()
	m.Timestamp = r.i64()
	m.Sig = r.bytes()
}

func (w *writer) batch(m *types.Batch) {
	writeList(w, m.Requests, (*writer).request)
	w.digest(&m.Digest)
}

func (r *reader) batch(m *types.Batch) {
	m.Requests = readList(r, minRequest, (*reader).request)
	r.digest(&m.Digest)
}

func (w *writer) result(m *types.Result) {
	w.uv(uint64(m.Client))
	w.uv(m.ReqNo)
	w.bytes(m.Value)
}

func (r *reader) result(m *types.Result) {
	m.Client = types.ClientID(r.uv())
	m.ReqNo = r.uv()
	m.Value = r.bytes()
}

func (w *writer) preparedProof(m *types.PreparedProof) {
	writeOpt(w, m.Preprepare, (*writer).preprepare)
	writeList(w, m.Prepares, (*writer).prepare)
	w.bytes(m.WC)
	w.bytes(m.QC)
}

func (r *reader) preparedProof(m *types.PreparedProof) {
	m.Preprepare = readOpt(r, (*reader).preprepare)
	m.Prepares = readList(r, minVote, (*reader).prepare)
	m.WC = r.bytes()
	m.QC = r.bytes()
}

// --- messages, in MsgType order ---

func (w *writer) requestBatch(m *types.RequestBatch) {
	writeList(w, m.Requests, (*writer).request)
}

func (r *reader) requestBatch(m *types.RequestBatch) {
	m.Requests = readList(r, minRequest, (*reader).request)
}

func (w *writer) preprepare(m *types.Preprepare) {
	w.uv(uint64(m.View))
	w.uv(uint64(m.Seq))
	writeOpt(w, m.Batch, (*writer).batch)
	writeOpt(w, m.Attest, (*writer).attestation)
	w.bytes(m.Sig)
}

func (r *reader) preprepare(m *types.Preprepare) {
	m.View = types.View(r.uv())
	m.Seq = types.SeqNum(r.uv())
	m.Batch = readOpt(r, (*reader).batch)
	m.Attest = readOpt(r, (*reader).attestation)
	m.Sig = r.bytes()
}

func (w *writer) prepare(m *types.Prepare) {
	w.uv(uint64(m.View))
	w.uv(uint64(m.Seq))
	w.digest(&m.Digest)
	w.replica(m.Replica)
	writeOpt(w, m.Attest, (*writer).attestation)
	w.bytes(m.Sig)
}

// Commit is Prepare field for field; the conversions stop compiling if the
// two structs ever diverge.
func (w *writer) commit(m *types.Commit) { w.prepare((*types.Prepare)(m)) }
func (r *reader) commit(m *types.Commit) { r.prepare((*types.Prepare)(m)) }

func (r *reader) prepare(m *types.Prepare) {
	m.View = types.View(r.uv())
	m.Seq = types.SeqNum(r.uv())
	r.digest(&m.Digest)
	m.Replica = r.replica()
	m.Attest = readOpt(r, (*reader).attestation)
	m.Sig = r.bytes()
}

func (w *writer) response(m *types.Response) {
	w.replica(m.Replica)
	w.uv(uint64(m.View))
	w.uv(uint64(m.Seq))
	w.digest(&m.Digest)
	w.digest(&m.History)
	w.flag(m.Speculative, flagSpeculative)
	w.uv(uint64(len(m.Results)))
	for i := range m.Results {
		w.result(&m.Results[i])
	}
	w.bytes(m.Sig)
}

func (r *reader) response(m *types.Response) { r.responseInto(m, nil) }

// responseInto decodes a Response whose Results, if there is exactly one and
// one is not nil, go into *one instead of a slice of their own.
func (r *reader) responseInto(m *types.Response, one *[1]types.Result) {
	m.Replica = r.replica()
	m.View = types.View(r.uv())
	m.Seq = types.SeqNum(r.uv())
	r.digest(&m.Digest)
	r.digest(&m.History)
	m.Speculative = r.flag(flagSpeculative)
	if n := r.count(minResult); n > 0 {
		if n == 1 && one != nil {
			m.Results = one[:]
		} else {
			m.Results = make([]types.Result, n)
		}
		for i := range m.Results {
			r.result(&m.Results[i])
		}
	}
	m.Sig = r.bytes()
}

func (w *writer) checkpoint(m *types.Checkpoint) {
	w.replica(m.Replica)
	w.uv(uint64(m.Seq))
	w.digest(&m.StateDigest)
	writeOpt(w, m.Attest, (*writer).attestation)
	w.bytes(m.Sig)
}

func (r *reader) checkpoint(m *types.Checkpoint) {
	m.Replica = r.replica()
	m.Seq = types.SeqNum(r.uv())
	r.digest(&m.StateDigest)
	m.Attest = readOpt(r, (*reader).attestation)
	m.Sig = r.bytes()
}

func (w *writer) viewChange(m *types.ViewChange) {
	w.replica(m.Replica)
	w.uv(uint64(m.NewView))
	w.uv(uint64(m.StableSeq))
	writeOpt(w, m.Checkpoint, (*writer).checkpoint)
	writeList(w, m.Prepared, (*writer).preparedProof)
	writeList(w, m.Preprepares, (*writer).preprepare)
	writeOpt(w, m.Attest, (*writer).attestation)
	w.bytes(m.Sig)
}

func (r *reader) viewChange(m *types.ViewChange) {
	m.Replica = r.replica()
	m.NewView = types.View(r.uv())
	m.StableSeq = types.SeqNum(r.uv())
	m.Checkpoint = readOpt(r, (*reader).checkpoint)
	m.Prepared = readList(r, minPreparedProof, (*reader).preparedProof)
	m.Preprepares = readList(r, minPreprepare, (*reader).preprepare)
	m.Attest = readOpt(r, (*reader).attestation)
	m.Sig = r.bytes()
}

func (w *writer) newView(m *types.NewView) {
	w.uv(uint64(m.View))
	writeList(w, m.ViewChanges, (*writer).viewChange)
	writeList(w, m.Proposals, (*writer).preprepare)
	writeOpt(w, m.CounterInit, (*writer).attestation)
	w.bytes(m.WindowCert)
	w.bytes(m.Sig)
}

func (r *reader) newView(m *types.NewView) {
	m.View = types.View(r.uv())
	m.ViewChanges = readList(r, minViewChange, (*reader).viewChange)
	m.Proposals = readList(r, minPreprepare, (*reader).preprepare)
	m.CounterInit = readOpt(r, (*reader).attestation)
	m.WindowCert = r.bytes()
	m.Sig = r.bytes()
}

func (w *writer) commitCert(m *types.CommitCert) {
	w.uv(uint64(m.Client))
	w.uv(uint64(m.View))
	w.uv(uint64(m.Seq))
	w.digest(&m.Digest)
	w.digest(&m.History)
	writeList(w, m.Responses, (*writer).response)
}

func (r *reader) commitCert(m *types.CommitCert) {
	m.Client = types.ClientID(r.uv())
	m.View = types.View(r.uv())
	m.Seq = types.SeqNum(r.uv())
	r.digest(&m.Digest)
	r.digest(&m.History)
	m.Responses = readList(r, minResponse, (*reader).response)
}

func (w *writer) localCommit(m *types.LocalCommit) {
	w.replica(m.Replica)
	w.uv(uint64(m.View))
	w.uv(uint64(m.Seq))
	w.digest(&m.Digest)
	w.uv(uint64(m.Client))
	w.bytes(m.Sig)
}

func (r *reader) localCommit(m *types.LocalCommit) {
	m.Replica = r.replica()
	m.View = types.View(r.uv())
	m.Seq = types.SeqNum(r.uv())
	r.digest(&m.Digest)
	m.Client = types.ClientID(r.uv())
	m.Sig = r.bytes()
}

func (w *writer) clientResend(m *types.ClientResend) {
	writeOpt(w, m.Request, (*writer).request)
}

func (r *reader) clientResend(m *types.ClientResend) {
	m.Request = readOpt(r, (*reader).request)
}

func (w *writer) forward(m *types.Forward) {
	w.replica(m.Replica)
	writeOpt(w, m.Request, (*writer).request)
}

func (r *reader) forward(m *types.Forward) {
	m.Replica = r.replica()
	m.Request = readOpt(r, (*reader).request)
}

func (w *writer) hello(m *types.Hello) {
	w.replica(m.Replica)
	w.uv(uint64(m.Client))
	w.flag(m.IsClient, flagIsClient)
}

func (r *reader) hello(m *types.Hello) {
	m.Replica = r.replica()
	m.Client = types.ClientID(r.uv())
	m.IsClient = r.flag(flagIsClient)
}

func (w *writer) leaseRead(m *types.LeaseRead) {
	w.uv(uint64(m.Client))
	w.uv(m.ReadNo)
	w.uv(m.Key)
	w.uv(uint64(m.Fence))
}

func (r *reader) leaseRead(m *types.LeaseRead) {
	m.Client = types.ClientID(r.uv())
	m.ReadNo = r.uv()
	m.Key = r.uv()
	m.Fence = types.SeqNum(r.uv())
}

func (w *writer) leaseReadReply(m *types.LeaseReadReply) {
	w.replica(m.Replica)
	w.uv(m.ReadNo)
	w.uv(m.Key)
	w.uv(uint64(m.View))
	w.uv(m.Epoch)
	w.uv(uint64(m.Watermark))
	w.u8(byte(m.Status))
	w.bytes(m.Value)
	writeOpt(w, m.Attest, (*writer).attestation)
}

func (r *reader) leaseReadReply(m *types.LeaseReadReply) {
	m.Replica = r.replica()
	m.ReadNo = r.uv()
	m.Key = r.uv()
	m.View = types.View(r.uv())
	m.Epoch = r.uv()
	m.Watermark = types.SeqNum(r.uv())
	m.Status = types.LeaseReadStatus(r.u8())
	m.Value = r.bytes()
	m.Attest = readOpt(r, (*reader).attestation)
}

func (w *writer) windowAttest(m *types.WindowAttest) {
	w.replica(m.Replica)
	w.bytes(m.Cert)
}

func (r *reader) windowAttest(m *types.WindowAttest) {
	m.Replica = r.replica()
	m.Cert = r.bytes()
}

// message encodes the kind byte's payload. A nil message pointer of a known
// kind has no encoding.
func (w *writer) message(msg types.Message) {
	switch m := msg.(type) {
	case *types.ClientRequest:
		encodeMsg(w, m, (*writer).request)
	case *types.RequestBatch:
		encodeMsg(w, m, (*writer).requestBatch)
	case *types.Preprepare:
		encodeMsg(w, m, (*writer).preprepare)
	case *types.Prepare:
		encodeMsg(w, m, (*writer).prepare)
	case *types.Commit:
		encodeMsg(w, m, (*writer).commit)
	case *types.Response:
		encodeMsg(w, m, (*writer).response)
	case *types.Checkpoint:
		encodeMsg(w, m, (*writer).checkpoint)
	case *types.ViewChange:
		encodeMsg(w, m, (*writer).viewChange)
	case *types.NewView:
		encodeMsg(w, m, (*writer).newView)
	case *types.CommitCert:
		encodeMsg(w, m, (*writer).commitCert)
	case *types.LocalCommit:
		encodeMsg(w, m, (*writer).localCommit)
	case *types.ClientResend:
		encodeMsg(w, m, (*writer).clientResend)
	case *types.Forward:
		encodeMsg(w, m, (*writer).forward)
	case *types.Hello:
		encodeMsg(w, m, (*writer).hello)
	case *types.LeaseRead:
		encodeMsg(w, m, (*writer).leaseRead)
	case *types.LeaseReadReply:
		encodeMsg(w, m, (*writer).leaseReadReply)
	case *types.WindowAttest:
		encodeMsg(w, m, (*writer).windowAttest)
	default:
		w.err = fmt.Errorf("no encoding for %T", msg)
	}
}

func encodeMsg[T any](w *writer, m *T, elem func(*writer, *T)) {
	if m == nil {
		w.err = fmt.Errorf("nil %T", m)
		return
	}
	elem(w, m)
}

// envelope decodes the payload of kind into one allocation with the envelope
// hdr.
func (r *reader) envelope(kind types.MsgType, hdr Envelope) *Envelope {
	switch kind {
	case types.MsgClientRequest:
		return decodeFramed(r, hdr, (*reader).request)
	case types.MsgRequestBatch:
		return decodeFramed(r, hdr, (*reader).requestBatch)
	case types.MsgPreprepare:
		return decodeFramed(r, hdr, (*reader).preprepare)
	case types.MsgPrepare:
		return decodeFramed(r, hdr, (*reader).prepare)
	case types.MsgCommit:
		return decodeFramed(r, hdr, (*reader).commit)
	case types.MsgResponse:
		f := &responseFrame{framed: framed[types.Response]{env: hdr}}
		f.env.Msg = &f.msg
		r.responseInto(&f.msg, &f.one)
		return &f.env
	case types.MsgCheckpoint:
		return decodeFramed(r, hdr, (*reader).checkpoint)
	case types.MsgViewChange:
		return decodeFramed(r, hdr, (*reader).viewChange)
	case types.MsgNewView:
		return decodeFramed(r, hdr, (*reader).newView)
	case types.MsgCommitCert:
		return decodeFramed(r, hdr, (*reader).commitCert)
	case types.MsgLocalCommit:
		return decodeFramed(r, hdr, (*reader).localCommit)
	case types.MsgClientResend:
		return decodeFramed(r, hdr, (*reader).clientResend)
	case types.MsgForward:
		return decodeFramed(r, hdr, (*reader).forward)
	case types.MsgHello:
		return decodeFramed(r, hdr, (*reader).hello)
	case types.MsgLeaseRead:
		return decodeFramed(r, hdr, (*reader).leaseRead)
	case types.MsgLeaseReadReply:
		return decodeFramed(r, hdr, (*reader).leaseReadReply)
	case types.MsgWindowCert:
		return decodeFramed(r, hdr, (*reader).windowAttest)
	}
	r.fail(fmt.Errorf("unknown message kind %d", kind))
	return nil
}

// framed is a decoded envelope and its message, allocated together: the
// envelope's Msg points at msg, and either keeps the other reachable.
type framed[T any] struct {
	env Envelope
	msg T
}

// responseFrame also holds the Result of a Response that carries exactly
// one, as a replica's reply to a client does.
type responseFrame struct {
	framed[types.Response]
	one [1]types.Result
}

// decodeFramed needs *T to be a types.Message; the constraint says so.
func decodeFramed[T any, P interface {
	*T
	types.Message
}](r *reader, hdr Envelope, elem func(*reader, *T)) *Envelope {
	f := &framed[T]{env: hdr}
	f.env.Msg = P(&f.msg)
	elem(r, &f.msg)
	return &f.env
}
