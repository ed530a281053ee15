package crypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"

	"flexitrust/internal/types"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cmacMessage is the 64-byte message of RFC 4493 section 4 and of the
// SP 800-38B examples; each example MACs a prefix of it.
const cmacMessage = "6bc1bee22e409f96e93d7e117393172a" +
	"ae2d8a571e03ac9c9eb76fac45af8e51" +
	"30c81c46a35ce411e5fbc1191a0a52ef" +
	"f69f2445df4f9b17ad2b417be66c3710"

const (
	rfc4493Key = "2b7e151628aed2a6abf7158809cf4f3c"
	sp80038Key = "603deb1015ca71be2b73aef0857d7781" +
		"1f352c073b6108d72d9810a30914dff4"
)

// TestCMACKnownAnswers: RFC 4493 examples 1-4 (AES-128) and the
// SP 800-38B AES-256 examples, the key size the authenticators use.
func TestCMACKnownAnswers(t *testing.T) {
	msg := unhex(t, cmacMessage)
	for _, tc := range []struct {
		key  string
		n    int
		want string
	}{
		{rfc4493Key, 0, "bb1d6929e95937287fa37d129b756746"},
		{rfc4493Key, 16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{rfc4493Key, 40, "dfa66747de9ae63030ca32611497c827"},
		{rfc4493Key, 64, "51f0bebf7e3b9d92fc49741779363cfe"},
		{sp80038Key, 0, "028962f61b7bf89efc6b551f4667d983"},
		{sp80038Key, 16, "28a7023f452e8f82bd4bf28d8c37c35c"},
		{sp80038Key, 40, "aaf3d8f1de5640c232f5b169b9c911e6"},
		{sp80038Key, 64, "e1992190549f6ed5696a2c056c315410"},
	} {
		c := newCMAC(unhex(t, tc.key))
		if got := hex.EncodeToString(c.sum(msg[:tc.n])[:]); got != tc.want {
			t.Errorf("key %.8s…, %d bytes: tag %s, want %s", tc.key, tc.n, got, tc.want)
		}
	}
}

// refCMAC is RFC 4493's algorithm as section 2.4 writes it, with fresh
// buffers and a branch per case: the reference the fast path is fuzzed
// against.
func refCMAC(key, msg []byte) []byte {
	const bs = aes.BlockSize
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	xor := func(a, b []byte) []byte {
		out := make([]byte, bs)
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
		return out
	}
	shift := func(in []byte) []byte {
		out := make([]byte, bs)
		for i := 0; i < bs; i++ {
			out[i] = in[i] << 1
			if i+1 < bs {
				out[i] |= in[i+1] >> 7
			}
		}
		if in[0]&0x80 != 0 {
			out[bs-1] ^= 0x87
		}
		return out
	}
	l := make([]byte, bs)
	block.Encrypt(l, l)
	k1 := shift(l)
	k2 := shift(k1)

	n := (len(msg) + bs - 1) / bs
	complete := n > 0 && len(msg)%bs == 0
	if n == 0 {
		n = 1
	}
	tail := msg[(n-1)*bs:]
	var last []byte
	if complete {
		last = xor(tail, k1)
	} else {
		padded := make([]byte, bs)
		copy(padded, tail)
		padded[len(tail)] = 0x80
		last = xor(padded, k2)
	}
	x := make([]byte, bs)
	for i := 0; i < n-1; i++ {
		block.Encrypt(x, xor(x, msg[i*bs:(i+1)*bs]))
	}
	block.Encrypt(x, xor(last, x))
	return x
}

// FuzzCMAC checks the fast path against refCMAC. The seeds alone cover every
// message length from 0 to 4 blocks + 1 under an AES-128 and an AES-256 key,
// so both padding branches and every partial last block run in tier-1.
func FuzzCMAC(f *testing.F) {
	msg := unhex(f, cmacMessage)
	msg = append(msg, 0x5a)
	for _, key := range []string{rfc4493Key, sp80038Key} {
		for n := 0; n <= len(msg); n++ {
			f.Add(unhex(f, key), msg[:n])
		}
	}
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		switch {
		case len(key) >= 32:
			key = key[:32]
		case len(key) >= 24:
			key = key[:24]
		case len(key) >= 16:
			key = key[:16]
		default:
			t.Skip("key shorter than AES-128")
		}
		c := newCMAC(key)
		want := refCMAC(key, msg)
		if got := c.sum(msg); !bytes.Equal(got[:], want) {
			t.Fatalf("%d-byte message: tag %x, reference %x", len(msg), got[:], want)
		}
		if got := c.sum(msg); !bytes.Equal(got[:], want) {
			t.Fatalf("%d-byte message: a second tag %x, reference %x", len(msg), got[:], want)
		}
	})
}

// TestClientAuthenticatorGolden pins the wire bytes of one vector: client
// 100's, of a 4-replica ring from seed 7, over the digest of "op". A change
// to key derivation, the MAC or the entry layout moves it.
func TestClientAuthenticatorGolden(t *testing.T) {
	ring, err := NewKeyring(7, 4, []types.ClientID{100})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := ring.ClientAuthenticator(100)
	if err != nil {
		t.Fatal(err)
	}
	const want = "3e097859217ed29a4086e4109c406fd6" + // replica 0
		"db4768b1ac6569fac9ebd5eca697981d" + // replica 1
		"ea79427e60bce8f10318cc810d40f3c7" + // replica 2
		"9b6a7b23fb1d117be1339c1a33aba07d" // replica 3
	if got := hex.EncodeToString(auth.Authenticate(HashBytes([]byte("op")))); got != want {
		t.Fatalf("vector\n%s\nwant\n%s", got, want)
	}
}
