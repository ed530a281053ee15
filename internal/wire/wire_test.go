package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"flexitrust/internal/types"
)

var update = flag.Bool("update", false, "rewrite the golden vectors under testdata/golden")

// sampleEnvelopes holds one representative envelope per message kind, every
// optional and list populated. TestEveryKindHasASample fails when a kind is
// added to types without one.
func sampleEnvelopes() []*Envelope {
	att := &types.Attestation{Replica: 2, Counter: 1, Epoch: 3, Value: 99,
		Digest: types.Digest{1, 2}, Proof: []byte("proof")}
	req := &types.ClientRequest{Client: 7, ReqNo: 300, Op: []byte("op"), Timestamp: -5, Sig: []byte("sig")}
	batch := &types.Batch{Requests: []*types.ClientRequest{req}, Digest: types.Digest{9}}
	pp := &types.Preprepare{View: 1, Seq: 5, Batch: batch, Attest: att, Sig: []byte("s")}
	prep := &types.Prepare{View: 1, Seq: 5, Digest: types.Digest{9}, Replica: 3, Attest: att, Sig: []byte("p")}
	ckpt := &types.Checkpoint{Replica: 0, Seq: 100, StateDigest: types.Digest{4}, Attest: att, Sig: []byte("c")}
	resp := &types.Response{Replica: 0, View: 1, Seq: 5, Digest: types.Digest{9}, History: types.Digest{8},
		Speculative: true, Sig: []byte("r"),
		Results: []types.Result{{Client: 7, ReqNo: 3, Value: []byte("OK")}, {Client: 7, ReqNo: 4}}}
	vc := &types.ViewChange{Replica: 1, NewView: 2, StableSeq: 100, Checkpoint: ckpt,
		Prepared: []*types.PreparedProof{{Preprepare: pp, Prepares: []*types.Prepare{prep},
			WC: []byte{0x02}, QC: []byte{0x01, 0xAB, 0xCD}}},
		Preprepares: []*types.Preprepare{pp}, Attest: att, Sig: []byte("v")}
	return []*Envelope{
		{From: 1, Msg: req},
		{From: 1, Msg: &types.RequestBatch{Requests: []*types.ClientRequest{req, req}}},
		{From: 2, Msg: pp},
		{From: 3, Msg: prep},
		{From: 3, Msg: &types.Commit{View: 1, Seq: 5, Digest: types.Digest{9}, Replica: 3, Attest: att, Sig: []byte("c")}},
		{From: 0, Msg: resp},
		{From: 0, Msg: ckpt},
		{From: 1, Msg: vc},
		{From: 2, Msg: &types.NewView{View: 2, ViewChanges: []*types.ViewChange{vc},
			Proposals: []*types.Preprepare{pp}, CounterInit: att, WindowCert: []byte{0x03}, Sig: []byte("n")}},
		{Client: 7, IsClient: true, Msg: &types.CommitCert{Client: 7, View: 1, Seq: 5,
			Digest: types.Digest{9}, History: types.Digest{8}, Responses: []*types.Response{resp}}},
		{From: 1, Msg: &types.LocalCommit{Replica: 1, View: 1, Seq: 5, Digest: types.Digest{9}, Client: 7, Sig: []byte("l")}},
		{Client: 7, IsClient: true, Msg: &types.ClientResend{Request: req}},
		{From: 2, Msg: &types.Forward{Replica: 2, Request: req}},
		{From: -1, Msg: &types.Hello{Replica: 2, Client: 1 << 40, IsClient: true}},
		{Client: 7, IsClient: true, Msg: &types.LeaseRead{Client: 7, ReadNo: 11, Key: 1 << 33, Fence: 40}},
		{From: 0, Msg: &types.LeaseReadReply{Replica: 0, ReadNo: 11, Key: 1 << 33, View: 1, Epoch: 2,
			Watermark: 41, Status: types.LeaseReadNotFound, Value: []byte("v"), Attest: att}},
		{From: 0, Msg: &types.WindowAttest{Replica: 0, Cert: []byte{0x01, 0x02}}},
	}
}

// sameEnvelope compares two envelopes' fields and messages.
func sameEnvelope(a, b *Envelope) bool {
	return a.From == b.From && a.Client == b.Client && a.IsClient == b.IsClient &&
		reflect.DeepEqual(a.Msg, b.Msg)
}

func mustEncode(t testing.TB, env *Envelope) []byte {
	t.Helper()
	frame, err := Encode(env)
	if err != nil {
		t.Fatalf("encode %s: %v", env.Msg.Type(), err)
	}
	return frame
}

func TestEveryKindHasASample(t *testing.T) {
	have := make(map[types.MsgType]bool)
	for _, env := range sampleEnvelopes() {
		have[env.Msg.Type()] = true
	}
	for k := types.MsgInvalid + 1; k < types.NumMsgTypes; k++ {
		if !have[k] {
			t.Errorf("no sample envelope for message kind %s", k)
		}
	}
}

func TestEncodeDecodeEveryMessageType(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		frame := mustEncode(t, env)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", env.Msg.Type(), err)
		}
		if !sameEnvelope(env, got) {
			t.Fatalf("roundtrip mismatch for %s:\n  in  %#v\n  out %#v", env.Msg.Type(), env.Msg, got.Msg)
		}
		if again := mustEncode(t, got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encoding the decoded envelope changed the bytes", env.Msg.Type())
		}
	}
}

// A message with nothing optional set is the other end of the format: every
// presence byte 0, every list and byte field empty.
func TestZeroMessagesRoundTrip(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		zero := &Envelope{Msg: reflect.New(reflect.TypeOf(env.Msg).Elem()).Interface().(types.Message)}
		got, err := Decode(mustEncode(t, zero))
		if err != nil {
			t.Fatalf("decode zero %s: %v", zero.Msg.Type(), err)
		}
		if !sameEnvelope(zero, got) {
			t.Fatalf("zero %s changed in transit: %#v", zero.Msg.Type(), got.Msg)
		}
	}
}

func goldenPath(k types.MsgType) string {
	return filepath.Join("testdata", "golden", k.String()+".hex")
}

// goldenFrames returns the checked-in vectors, by kind.
func goldenFrames(t testing.TB) map[types.MsgType][]byte {
	t.Helper()
	out := make(map[types.MsgType][]byte)
	for k := types.MsgInvalid + 1; k < types.NumMsgTypes; k++ {
		raw, err := os.ReadFile(goldenPath(k))
		if err != nil {
			t.Fatalf("golden vector: %v (run go test -update ./internal/wire after a deliberate format change)", err)
		}
		frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", goldenPath(k), err)
		}
		out[k] = frame
	}
	return out
}

// The golden vectors pin the format: a change that moves a byte of any kind's
// encoding fails here and has to bump the version.
func TestGoldenVectors(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, env := range sampleEnvelopes() {
			text := hex.EncodeToString(mustEncode(t, env)) + "\n"
			if err := os.WriteFile(goldenPath(env.Msg.Type()), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := goldenFrames(t)
	for _, env := range sampleEnvelopes() {
		k := env.Msg.Type()
		if got := mustEncode(t, env); !bytes.Equal(got, golden[k]) {
			t.Errorf("%s encodes to\n  %x\ngolden\n  %x", k, got, golden[k])
		}
		dec, err := Decode(golden[k])
		if err != nil {
			t.Errorf("golden %s: %v", k, err)
		} else if !sameEnvelope(env, dec) {
			t.Errorf("golden %s decodes to %#v", k, dec.Msg)
		}
	}
}

// withLength returns body framed under a header that declares its length.
func withLength(body []byte) []byte {
	frame := append([]byte{magic0, magic1, magic2, version, 0, 0, 0, 0}, body...)
	binary.BigEndian.PutUint32(frame[4:], uint32(len(body)))
	return frame
}

// Truncation at every offset is an error, never a panic: as a short read of
// the stream, and as a shorter body under a header that matches it.
func TestTruncationAtEveryOffset(t *testing.T) {
	for k, frame := range goldenFrames(t) {
		for cut := 0; cut < len(frame); cut++ {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if _, err := ReadFrame(stream(frame[:cut])); err != want {
				t.Fatalf("%s: stream cut at %d: err = %v, want %v", k, cut, err, want)
			}
			if _, err := Decode(frame[:cut]); err == nil {
				t.Fatalf("%s: frame cut at %d accepted", k, cut)
			}
			if cut >= headerSize {
				if _, err := Decode(withLength(frame[headerSize:cut])); err == nil {
					t.Fatalf("%s: body cut at %d accepted", k, cut-headerSize)
				}
			}
		}
	}
}

// stream returns a buffered reader over b, as a connection's read loop has.
func stream(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	envs := sampleEnvelopes()
	for _, env := range envs {
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := range envs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameEnvelope(envs[i], got) {
			t.Fatalf("frame %d = %#v, want %#v", i, got.Msg, envs[i].Msg)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream err = %v, want EOF", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	frame := mustEncode(t, sampleEnvelopes()[0])
	frame[0] ^= 0xFF
	if _, err := Decode(frame); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadFrame(stream(frame)); err != ErrBadMagic {
		t.Fatalf("ReadFrame err = %v, want ErrBadMagic", err)
	}
}

// A frame of another codec version is refused with its own error before its
// length is believed. The gob-based format this codec replaced put 'U' where
// the version byte is now, so an old peer lands here.
func TestUnknownVersionRejected(t *testing.T) {
	frame := mustEncode(t, sampleEnvelopes()[0])
	frame[3] = version + 1
	if _, err := Decode(frame); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("Decode err = %v, want ErrUnknownVersion", err)
	}
	gobPeer := []byte{'F', 'T', 'R', 'U', 0xFF, 0xFF, 0xFF, 0xFF, 0x3f, 0xff}
	if _, err := ReadFrame(stream(gobPeer)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("ReadFrame(old peer) err = %v, want ErrUnknownVersion", err)
	}
	if _, err := ReadHello(stream(gobPeer)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("ReadHello(old peer) err = %v, want ErrUnknownVersion", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	hdr := []byte{magic0, magic1, magic2, version, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(stream(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// countingReader records how much of the stream was consumed.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestReadHello(t *testing.T) {
	// The cap is exactly the widest Hello: every varint at full width.
	widest := &Envelope{From: -1, Client: math.MaxUint64, IsClient: true,
		Msg: &types.Hello{Replica: -1, Client: math.MaxUint64, IsClient: true}}
	frame := mustEncode(t, widest)
	if len(frame) != headerSize+maxHelloBody {
		t.Fatalf("widest Hello body is %d bytes, maxHelloBody says %d", len(frame)-headerSize, maxHelloBody)
	}
	hello, err := ReadHello(stream(frame))
	if err != nil || !reflect.DeepEqual(hello, widest.Msg) {
		t.Fatalf("ReadHello = %#v, %v", hello, err)
	}

	// One byte over the cap is refused on the header alone: the body is
	// neither consumed nor allocated.
	big := withLength(make([]byte, maxHelloBody+1))
	src := &countingReader{r: bytes.NewReader(big)}
	br := bufio.NewReader(src)
	if _, err := ReadHello(br); err != ErrFrameTooLarge {
		t.Fatalf("oversized pre-handshake frame: err = %v, want ErrFrameTooLarge", err)
	}
	if used := src.n - br.Buffered(); used != headerSize {
		t.Fatalf("consumed %d bytes of an oversized pre-handshake frame, want the %d-byte header only", used, headerSize)
	}

	// Anything else that fits is still not a Hello.
	lr := mustEncode(t, &Envelope{Msg: &types.LeaseRead{}})
	if _, err := ReadHello(stream(lr)); err == nil {
		t.Fatal("a LeaseRead was accepted as the opening frame")
	}
}

// Every value has one encoding: the decoder refuses the others, which is what
// makes Encode(Decode(f)) == f hold for any f it accepts.
func TestNonCanonicalEncodingsRejected(t *testing.T) {
	hello := func(body ...byte) []byte { return withLength(append([]byte{byte(types.MsgHello)}, body...)) }
	cases := map[string][]byte{
		"canonical (control)":     hello(0, 0, 0, 2, 0, 0),
		"non-minimal varint":      hello(0, 0x80, 0x00, 0, 2, 0, 0),
		"varint over 64 bits":     hello(0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 2, 0, 0),
		"uv32 out of range":       hello(0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 2, 0, 0),
		"undefined envelope flag": hello(2, 0, 0, 2, 0, 0),
		"undefined Hello flag":    hello(0, 0, 0, 2, 0, 4),
		"trailing byte":           hello(0, 0, 0, 2, 0, 0, 0),
		"presence byte 2":         withLength([]byte{byte(types.MsgClientResend), 0, 0, 0, 2}),
		"kind 0":                  withLength([]byte{0, 0, 0, 0}),
		"kind past the last":      withLength([]byte{byte(types.NumMsgTypes), 0, 0, 0}),
		"empty body":              withLength(nil),
	}
	for name, frame := range cases {
		_, err := Decode(frame)
		if control := strings.HasPrefix(name, "canonical"); control != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestUnencodableEnvelopes(t *testing.T) {
	var nilReq *types.ClientRequest
	for name, env := range map[string]*Envelope{
		"no message":        {},
		"typed nil message": {Msg: nilReq},
		"nil list element":  {Msg: &types.RequestBatch{Requests: []*types.ClientRequest{nil}}},
		"nil nested element": {Msg: &types.ViewChange{Prepared: []*types.PreparedProof{
			{Prepares: []*types.Prepare{nil}}}}},
	} {
		if _, err := Encode(env); !errors.Is(err, ErrUnencodable) {
			t.Errorf("%s: Encode err = %v, want ErrUnencodable", name, err)
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, env); !errors.Is(err, ErrUnencodable) || out.Len() != 0 {
			t.Errorf("%s: WriteFrame err = %v after %d bytes, want ErrUnencodable after none", name, err, out.Len())
		}
	}
}

// A count is checked against the bytes that remain before anything is sized
// by it: a few bytes cannot make the decoder allocate a large list.
func TestHostileCountAllocatesNothing(t *testing.T) {
	// RequestBatch declaring 2^28 requests, NewView declaring 2^28 view changes.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x01}
	for _, frame := range [][]byte{
		withLength(append([]byte{byte(types.MsgRequestBatch), 0, 0, 0}, huge...)),
		withLength(append([]byte{byte(types.MsgNewView), 0, 0, 0, 1}, huge...)),
	} {
		if _, err := Decode(frame); err == nil {
			t.Fatal("hostile count accepted")
		}
		if got := allocatedBytes(4096, func() { Decode(frame) }); got > 4096 {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), got)
		}
	}
}

// responseWith returns a Response envelope carrying n results.
func responseWith(n int) *Envelope {
	resp := &types.Response{Replica: 1, View: 1, Seq: 5, Digest: types.Digest{9}, Sig: []byte("r")}
	for i := range n {
		resp.Results = append(resp.Results, types.Result{Client: 7, ReqNo: uint64(i + 1), Value: []byte("OK")})
	}
	return &Envelope{From: 1, Msg: resp}
}

// Decode allocates one object for the envelope and its message, and one more
// per optional struct present and two per non-empty list. The golden vectors
// set every optional and list; the last rows are the shapes most frames on a
// running cluster take.
func TestDecodeAllocations(t *testing.T) {
	golden := goldenFrames(t)
	want := map[types.MsgType]float64{
		types.MsgClientRequest:  1,
		types.MsgRequestBatch:   3,  // the request slab and its pointers
		types.MsgPreprepare:     5,  // Batch, its request list, Attest
		types.MsgPrepare:        2,  // Attest
		types.MsgCommit:         2,  // Attest
		types.MsgResponse:       2,  // two results: their own slice
		types.MsgCheckpoint:     2,  // Attest
		types.MsgViewChange:     20, // every nested optional and list
		types.MsgNewView:        29,
		types.MsgCommitCert:     4, // the response list, and its results
		types.MsgLocalCommit:    1,
		types.MsgClientResend:   2, // Request
		types.MsgForward:        2, // Request
		types.MsgHello:          1,
		types.MsgLeaseRead:      1,
		types.MsgLeaseReadReply: 2, // Attest
		types.MsgWindowCert:     1,
	}
	pin := func(name string, frame []byte, want float64) {
		t.Helper()
		if got := testing.AllocsPerRun(100, func() { Decode(frame) }); got != want {
			t.Errorf("Decode(%s) allocates %v objects, want %v", name, got, want)
		}
	}
	for k := types.MsgInvalid + 1; k < types.NumMsgTypes; k++ {
		pin("golden "+k.String(), golden[k], want[k])
	}
	pin("a Commit without attestation", mustEncode(t, &Envelope{From: 3, Msg: &types.Commit{View: 1, Seq: 5, Replica: 3, Sig: []byte("c")}}), 1)
	pin("a one-result Response", mustEncode(t, responseWith(1)), 1)
}

// A frame read off a buffered connection costs its body and Decode's one
// object: the header is peeked in the reader's buffer, not copied out.
func TestReadFrameFromBufferedReaderAllocations(t *testing.T) {
	frame := mustEncode(t, &Envelope{From: 3, Msg: &types.Commit{View: 1, Seq: 5, Replica: 3, Sig: []byte("c")}})
	const runs = 100
	br := stream(bytes.Repeat(frame, runs+1))
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Fatalf("ReadFrame from a *bufio.Reader allocates %v objects per frame, want 2", got)
	}
}

// A Response with one result keeps it inline, and the slice ends there: an
// append by whoever holds the message must not write over the frame's
// memory.
func TestOneResultResponseIsCapped(t *testing.T) {
	for n := range 4 {
		env, err := Decode(mustEncode(t, responseWith(n)))
		if err != nil {
			t.Fatal(err)
		}
		if !sameEnvelope(responseWith(n), env) {
			t.Fatalf("%d-result Response changed in transit: %#v", n, env.Msg)
		}
		if res := env.Msg.(*types.Response).Results; cap(res) != n {
			t.Fatalf("%d-result Response decodes with cap(Results) = %d", n, cap(res))
		}
	}
}

// Property: arbitrary client requests survive the codec bit-for-bit. (Empty
// byte fields decode as nil, which is semantically identical for payloads,
// so the property normalizes them.)
func TestRequestRoundTripProperty(t *testing.T) {
	norm := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	prop := func(client uint64, reqNo uint64, ts int64, op, sig []byte) bool {
		in := &Envelope{From: 1, Msg: &types.ClientRequest{
			Client: types.ClientID(client), ReqNo: reqNo, Op: norm(op), Timestamp: ts, Sig: norm(sig)}}
		frame, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(frame)
		if err != nil {
			return false
		}
		return sameEnvelope(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
