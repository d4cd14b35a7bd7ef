// Package bits provides the bit-level utilities shared by the PHY: bit/byte
// packing in 802.11 transmission order (LSB first), pseudo-random payload
// generation, and bit-error counting.
package bits

import (
	"fmt"
	"math/rand"
)

// FromBytes expands data into bits, least-significant bit of each byte first,
// which is the transmission order used by IEEE 802.11.
func FromBytes(data []byte) []byte {
	out := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>i)&1)
		}
	}
	return out
}

// ToBytes packs bits (values 0/1, LSB first per byte) into bytes.
// len(bits) must be a multiple of 8.
func ToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("bits: value %d at index %d is not a bit", b, i)
		}
		out[i/8] |= b << (i % 8)
	}
	return out, nil
}

// RandomBytes returns n pseudo-random bytes from the given source.
func RandomBytes(r *rand.Rand, n int) []byte {
	return RandomBytesInto(nil, r, n)
}

// RandomBytesInto appends n uniform random octets to dst (usually dst[:0] of
// a reused buffer) and returns the extended slice. It draws exactly the same
// sequence as RandomBytes for the same generator state.
func RandomBytesInto(dst []byte, r *rand.Rand, n int) []byte {
	need := len(dst) + n
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, byte(r.Intn(256)))
	}
	return dst
}

// Parity returns the even parity bit over the given bits (1 if the number of
// ones is odd).
func Parity(bits []byte) byte {
	var p byte
	for _, b := range bits {
		p ^= b & 1
	}
	return p
}

// Uint16LSB converts the low n bits of v into a bit slice, LSB first.
func Uint16LSB(v uint16, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte((v >> i) & 1)
	}
	return out
}

// ParseUintLSB parses an LSB-first bit slice back into an unsigned value.
func ParseUintLSB(bits []byte) uint32 {
	var v uint32
	for i, b := range bits {
		v |= uint32(b&1) << i
	}
	return v
}
