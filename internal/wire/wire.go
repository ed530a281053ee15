// Package wire is the byte format protocol messages take on the real
// transports, and the only code that knows it. The codec is hand-written,
// reflection-free and stateless: a frame decodes on its own, so a corrupt
// frame costs one frame, not the connection's state.
//
// # Frame
//
//	'F' 'T' 'R' | version u8 | length u32 | body (length bytes)
//
// The three magic bytes detect a desynchronized stream or a foreign peer
// (ErrBadMagic). The version byte is 1; any other value is
// ErrUnknownVersion, checked before the length is looked at — a peer of the
// earlier gob-based format sends 'U' (0x55) there and is turned away on its
// first header instead of being misparsed. length is big-endian and counts
// the body only.
//
// # Body
//
//	kind u8 | flags u8 | From uv32 | Client uv | message
//
// kind is the message's types.MsgType; flags bit 0 is Envelope.IsClient.
// The message's fields follow in the order below. Primitives:
//
//	u8       one byte
//	uv       unsigned LEB128 varint, shortest form only
//	uv32     a uv whose value fits 32 bits (ReplicaID as its two's-complement
//	         bits, Counter, Epoch)
//	i64      8 bytes big-endian (Timestamp)
//	digest   32 raw bytes
//	bytes    uv length, then that many raw bytes
//	flags    u8 with one defined bit; any other bit set is an error
//	opt(X)   u8 0 or 1, then X if 1
//	list(X)  uv count, then count X
//
// Nested structs:
//
//	Attestation    Replica uv32 | Counter uv32 | Epoch uv32 | Value uv | Digest digest | Proof bytes
//	ClientRequest  Client uv | ReqNo uv | Op bytes | Timestamp i64 | Sig bytes
//	Batch          Requests list(ClientRequest) | Digest digest
//	Result         Client uv | ReqNo uv | Value bytes
//	PreparedProof  Preprepare opt(Preprepare) | Prepares list(Prepare) | WC bytes | QC bytes
//
// Messages, by kind:
//
//	 1 ClientRequest   as above
//	 2 RequestBatch    Requests list(ClientRequest)
//	 3 Preprepare      View uv | Seq uv | Batch opt(Batch) | Attest opt(Attestation) | Sig bytes
//	 4 Prepare         View uv | Seq uv | Digest digest | Replica uv32 | Attest opt(Attestation) | Sig bytes
//	 5 Commit          same layout as Prepare
//	 6 Response        Replica uv32 | View uv | Seq uv | Digest digest | History digest |
//	                   flags (bit 0 Speculative) | Results list(Result) | Sig bytes
//	 7 Checkpoint      Replica uv32 | Seq uv | StateDigest digest | Attest opt(Attestation) | Sig bytes
//	 8 ViewChange      Replica uv32 | NewView uv | StableSeq uv | Checkpoint opt(Checkpoint) |
//	                   Prepared list(PreparedProof) | Preprepares list(Preprepare) |
//	                   Attest opt(Attestation) | Sig bytes
//	 9 NewView         View uv | ViewChanges list(ViewChange) | Proposals list(Preprepare) |
//	                   CounterInit opt(Attestation) | WindowCert bytes | Sig bytes
//	10 CommitCert      Client uv | View uv | Seq uv | Digest digest | History digest | Responses list(Response)
//	11 LocalCommit     Replica uv32 | View uv | Seq uv | Digest digest | Client uv | Sig bytes
//	12 ClientResend    Request opt(ClientRequest)
//	13 Forward         Replica uv32 | Request opt(ClientRequest)
//	14 Hello           Replica uv32 | Client uv | flags (bit 0 IsClient)
//	15 LeaseRead       Client uv | ReadNo uv | Key uv | Fence uv
//	16 LeaseReadReply  Replica uv32 | ReadNo uv | Key uv | View uv | Epoch uv | Watermark uv |
//	                   Status u8 | Value bytes | Attest opt(Attestation)
//	17 WindowAttest    Replica uv32 | Cert bytes
//
// Every value has exactly one encoding (shortest varints, 0/1 presence
// bytes, no undefined flag bits, no trailing bytes), so Encode(Decode(f))
// reproduces f byte for byte. Empty byte fields and empty lists decode as
// nil. A nil message, or a nil element inside a list, has no encoding and
// is an Encode error.
//
// # Bounds
//
//   - A body is at most 64 MiB (ErrFrameTooLarge, on both sides): far above
//     any legitimate batch, and the most one frame can make a reader allocate.
//   - Before a connection has introduced itself the cap is the largest body a
//     Hello can have (34 bytes, ReadHello), so a stranger costs the reader 34
//     bytes, not 64 MiB.
//   - A bytes length must not exceed the bytes left in the body. Byte fields
//     are sub-slices of the body and allocate nothing.
//   - A list count must not exceed the bytes left divided by the element's
//     smallest possible encoding (3 bytes for a Result, 4 for a
//     PreparedProof, 12 for a ClientRequest, …), checked before the list is
//     allocated. Decoded memory is therefore linear in the frame length —
//     at worst about 24 bytes of structs per body byte, for a frame that is
//     nothing but empty PreparedProofs — where gob's was unbounded.
//   - uv32 fields reject values above 2^32-1 rather than truncating them.
//
// A decoded message aliases the body it was decoded from: Op, Sig, Value,
// Proof and the pre-encoded certificates point into it, and it stays
// reachable as long as any of them does. ReadFrame allocates that body once
// per frame; Decode aliases the caller's slice.
//
// # Allocation
//
// The codec's fixed cost per message is heap objects, so it keeps them few:
//
//   - WriteFrame encodes into a pooled buffer and writes it: a send allocates
//     nothing, and every peer of a broadcast gets its own encode (well under
//     a microsecond for a batch of 16 requests, against a socket write of
//     several).
//   - Decode allocates one object for the envelope and its message together.
//     A Response carrying exactly one Result (a replica's reply to a client)
//     holds it in that object too. Each optional struct present adds one
//     object and each non-empty list two (a slab and its pointers).
//   - ReadFrame reads from a connection's *bufio.Reader and peeks the header
//     in its buffer, so a frame read off a connection costs its body and
//     Decode's objects.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"flexitrust/internal/types"
)

// Frame header and limits.
const (
	magic0, magic1, magic2 = 'F', 'T', 'R'

	version      = 1
	headerSize   = 8
	maxFrameSize = 64 << 20
)

// Errors returned by the codec.
var (
	// ErrBadMagic indicates stream desynchronization or a foreign peer.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrUnknownVersion rejects a frame of another codec version.
	ErrUnknownVersion = errors.New("wire: unknown codec version")
	// ErrFrameTooLarge rejects oversized frames before allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrUnencodable marks an envelope that has no encoding: Encode and
	// WriteFrame wrap it in every error of their own, and WriteFrame then
	// has written nothing. Any other WriteFrame error is the writer's.
	ErrUnencodable = errors.New("wire: envelope has no encoding")
)

// Envelope is the unit of transmission: an authenticated sender plus the
// message. Receivers trust From only after the transport's handshake has
// pinned the connection to an identity.
//
// An envelope is immutable after its first Send: the in-process hub hands
// the same pointer to every receiver, and the TCP transport encodes it again
// for every peer, so a later change would reach some receivers and not
// others. Build a new envelope instead. IsClient sits next to From so that
// the struct is 32 bytes, one size class below where it would otherwise land.
type Envelope struct {
	From     types.ReplicaID
	IsClient bool
	Client   types.ClientID
	Msg      types.Message
}

// writers recycles encoders with their buffers. A buffer grows to the largest
// frame it has carried, so steady-state encoding allocates only what it
// returns; readers does the same for the decoder's cursor. A new writer's
// buffer starts at writerSize, so that refilling the pool (which a race build
// does for one Put in four) costs two objects, not the writer plus every
// doubling up to a vote's frame.
var (
	writers = sync.Pool{New: func() any { return &writer{b: make([]byte, 0, writerSize)} }}
	readers = sync.Pool{New: func() any { return new(reader) }}
)

// maxPooled keeps one oversized frame from pinning its buffer forever;
// writerSize holds a vote's frame whole.
const (
	maxPooled  = 64 << 10
	writerSize = 256
)

// Encode serializes an envelope into a framed byte slice the caller owns.
func Encode(env *Envelope) ([]byte, error) {
	w := writers.Get().(*writer)
	defer w.release()
	if err := w.frame(env); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(w.b)), w.b...), nil
}

// WriteFrame encodes env into a pooled buffer and writes it to w in a single
// Write, allocating nothing once the pool is warm. An envelope with no
// encoding is an error wrapping ErrUnencodable, and nothing is written.
func WriteFrame(w io.Writer, env *Envelope) error {
	enc := writers.Get().(*writer)
	defer enc.release()
	if err := enc.frame(env); err != nil {
		return err
	}
	_, err := w.Write(enc.b)
	return err
}

func (w *writer) release() {
	if cap(w.b) <= maxPooled {
		writers.Put(w)
	}
}

// frame encodes env's frame into w.b, replacing what was there: the header
// is reserved first and its length patched in place once the body is known.
func (w *writer) frame(env *Envelope) error {
	if env.Msg == nil {
		return fmt.Errorf("%w: it carries no message", ErrUnencodable)
	}
	w.b, w.err = append(w.b[:0], magic0, magic1, magic2, version, 0, 0, 0, 0), nil
	w.u8(byte(env.Msg.Type()))
	w.flag(env.IsClient, flagIsClient)
	w.replica(env.From)
	w.uv(uint64(env.Client))
	w.message(env.Msg)
	if w.err != nil {
		return fmt.Errorf("%w: encoding %s: %v", ErrUnencodable, env.Msg.Type(), w.err)
	}
	body := len(w.b) - headerSize
	if body > maxFrameSize {
		return fmt.Errorf("%w: %w", ErrUnencodable, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(w.b[4:], uint32(body))
	return nil
}

// checkHeader validates a frame header against the body limit and returns
// the body length.
func checkHeader(hdr []byte, limit uint32) (uint32, error) {
	if hdr[0] != magic0 || hdr[1] != magic1 || hdr[2] != magic2 {
		return 0, ErrBadMagic
	}
	if hdr[3] != version {
		return 0, fmt.Errorf("%w %d", ErrUnknownVersion, hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:headerSize])
	if n > limit {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// Decode parses one framed envelope from a byte slice (must contain exactly
// one frame). The envelope aliases frame, which must not change afterwards.
func Decode(frame []byte) (*Envelope, error) {
	if len(frame) < headerSize {
		return nil, io.ErrUnexpectedEOF
	}
	n, err := checkHeader(frame, maxFrameSize)
	if err != nil {
		return nil, err
	}
	if int(n) != len(frame)-headerSize {
		return nil, fmt.Errorf("wire: frame length %d does not match payload %d", n, len(frame)-headerSize)
	}
	return decodeBody(frame[headerSize:])
}

// decodeBody decodes an envelope body, which the result aliases.
func decodeBody(body []byte) (*Envelope, error) {
	r := readers.Get().(*reader)
	r.b, r.err = body, nil
	kind := types.MsgType(r.u8())
	hdr := Envelope{IsClient: r.flag(flagIsClient)}
	hdr.From = r.replica()
	hdr.Client = types.ClientID(r.uv())
	var env *Envelope
	if r.err == nil {
		env = r.envelope(kind, hdr)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	err := r.err
	r.b, r.err = nil, nil
	readers.Put(r)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", kind, err)
	}
	return env, nil
}

// ReadFrame reads one framed envelope from r, enforcing the size limit. The
// header is read in place from r's buffer, so the frame costs its body and
// Decode's one object.
func ReadFrame(r *bufio.Reader) (*Envelope, error) {
	return readFrame(r, maxFrameSize)
}

// ReadHello reads the frame that must open a connection: a Hello, held to
// the size a Hello can have, so that a peer that has not said who it is
// cannot make the reader allocate more than that.
func ReadHello(r *bufio.Reader) (*types.Hello, error) {
	env, err := readFrame(r, maxHelloBody)
	if err != nil {
		return nil, err
	}
	hello, ok := env.Msg.(*types.Hello)
	if !ok {
		return nil, fmt.Errorf("wire: %s before Hello", env.Msg.Type())
	}
	return hello, nil
}

func readFrame(r *bufio.Reader, limit uint32) (*Envelope, error) {
	hdr, err := r.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, err := checkHeader(hdr, limit)
	r.Discard(headerSize)
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodeBody(body)
}
