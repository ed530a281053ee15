package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// cmac is AES-CMAC (RFC 4493, NIST SP 800-38B) under one key: the block
// cipher, the two subkeys, and the block a tag is computed in. A
// cipher.Block's arguments escape, so the scratch block lives here, and a
// cmac is not safe for concurrent use.
type cmac struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
	x      [aes.BlockSize]byte
}

// newCMAC keys a cmac with an AES-128, -192 or -256 key. Every key this
// package derives is 32 bytes, so an error here is a bug.
func newCMAC(key []byte) cmac {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("crypto: CMAC key: " + err.Error())
	}
	c := cmac{block: block}
	var l [aes.BlockSize]byte
	block.Encrypt(l[:], l[:])
	c.k1 = dbl(l)
	c.k2 = dbl(c.k1)
	return c
}

// dbl doubles b in GF(2^128), the subkey step of RFC 4493 section 2.3,
// without branching on the key-derived bit it shifts out.
func dbl(b [aes.BlockSize]byte) [aes.BlockSize]byte {
	var out [aes.BlockSize]byte
	for i := 0; i < aes.BlockSize-1; i++ {
		out[i] = b[i]<<1 | b[i+1]>>7
	}
	out[aes.BlockSize-1] = b[aes.BlockSize-1]<<1 ^ 0x87&(0-b[0]>>7)
	return out
}

// sum returns the tag of msg. It points into c, so it is valid until the
// next call.
func (c *cmac) sum(msg []byte) *[aes.BlockSize]byte {
	x := &c.x
	*x = [aes.BlockSize]byte{}
	// Chaining starts from the zero block, so a first block that is not the
	// last is copied in, not XORed: about a fifth of a 32-byte tag's time.
	if len(msg) > aes.BlockSize {
		copy(x[:], msg)
		c.block.Encrypt(x[:], x[:])
		msg = msg[aes.BlockSize:]
	}
	for len(msg) > aes.BlockSize {
		xorBlock(x, msg)
		c.block.Encrypt(x[:], x[:])
		msg = msg[aes.BlockSize:]
	}
	// The last block: whole, it is masked with K1; short or empty, it is
	// padded with 10* and masked with K2.
	if len(msg) == aes.BlockSize {
		xorBlock(x, msg)
		xorBlock(x, c.k1[:])
	} else {
		for i, b := range msg {
			x[i] ^= b
		}
		x[len(msg)] ^= 0x80
		xorBlock(x, c.k2[:])
	}
	c.block.Encrypt(x[:], x[:])
	return x
}

// xorBlock XORs the first block of b into x.
func xorBlock(x *[aes.BlockSize]byte, b []byte) {
	b = b[:aes.BlockSize]
	lo := binary.LittleEndian.Uint64(x[:8]) ^ binary.LittleEndian.Uint64(b[:8])
	hi := binary.LittleEndian.Uint64(x[8:]) ^ binary.LittleEndian.Uint64(b[8:])
	binary.LittleEndian.PutUint64(x[:8], lo)
	binary.LittleEndian.PutUint64(x[8:], hi)
}
