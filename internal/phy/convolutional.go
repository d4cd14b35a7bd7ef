package phy

import (
	"fmt"
	"slices"
)

// Convolutional code constants for the clause-17 rate-1/2 mother code.
const (
	// ConstraintLength is K = 7.
	ConstraintLength = 7
	// NumStates is the number of encoder states (2^(K-1)).
	NumStates = 1 << (ConstraintLength - 1)
	// GeneratorA is g0 = 133 octal.
	GeneratorA = 0o133
	// GeneratorB is g1 = 171 octal.
	GeneratorB = 0o171
)

// parity7 returns the parity of the low 7 bits of v.
func parity7(v int) byte {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

// ConvolutionalEncode encodes bits with the rate-1/2, K=7 mother code
// (generators 133/171 octal). The encoder starts and is left in the zero
// state; callers append 6 tail bits to data when termination is desired.
// The output interleaves the two generator outputs: A0 B0 A1 B1 ...
func ConvolutionalEncode(bits []byte) []byte {
	return ConvolutionalEncodeAppend(make([]byte, 0, len(bits)*2), bits)
}

// ConvolutionalEncodeAppend is ConvolutionalEncode appending the coded bits
// to dst and returning it, reusing dst's capacity.
func ConvolutionalEncodeAppend(dst, bits []byte) []byte {
	state := 0 // the 6 most recent input bits, newest in the MSB of bit 5
	for _, b := range bits {
		reg := int(b&1)<<6 | state // newest bit in position 6
		dst = append(dst, parity7(reg&GeneratorA), parity7(reg&GeneratorB))
		state = reg >> 1
	}
	return dst
}

// punctureKeep returns the per-position keep mask for a punctured rate over
// one puncturing period of the A/B interleaved stream.
func punctureKeep(rate CodeRate) ([]bool, error) {
	switch rate {
	case Rate1_2:
		return []bool{true, true}, nil
	case Rate2_3:
		// Period: A1 B1 A2 B2 -> keep A1 B1 A2, steal B2.
		return []bool{true, true, true, false}, nil
	case Rate3_4:
		// Period: A1 B1 A2 B2 A3 B3 -> keep A1 B1 B2 A3 (steal A2, B3).
		return []bool{true, true, false, true, true, false}, nil
	default:
		return nil, fmt.Errorf("phy: unknown code rate %d", rate)
	}
}

// PunctureAppend removes the stolen bits from a rate-1/2 coded stream to
// realize the requested rate, per clause 17.3.5.6, appending the surviving
// bits to dst and returning it (dst's capacity is reused).
func PunctureAppend(dst, coded []byte, rate CodeRate) ([]byte, error) {
	keep, err := punctureKeep(rate)
	if err != nil {
		return nil, err
	}
	if rate == Rate1_2 {
		// Rate 1/2 keeps every bit; the period scan would be a byte-wise copy.
		return append(dst, coded...), nil
	}
	// Walk whole puncturing periods so the keep index needs no modulo.
	P := len(keep)
	full := len(coded) / P * P
	for s := 0; s < full; s += P {
		period := coded[s : s+P]
		for j, k := range keep {
			if k {
				dst = append(dst, period[j])
			}
		}
	}
	for j, b := range coded[full:] {
		if keep[j] {
			dst = append(dst, b)
		}
	}
	return dst, nil
}

// DepunctureAppend re-inserts erasures at the stolen-bit positions of a
// punctured soft-metric stream, appending the expanded metrics to dst and
// returning it. Erasure positions get the neutral metric 0; inputs are
// LLR-like soft values (positive favors bit 0).
func DepunctureAppend(dst, punctured []float64, rate CodeRate) ([]float64, error) {
	keep, err := punctureKeep(rate)
	if err != nil {
		return nil, err
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	if len(punctured)%kept != 0 {
		return nil, fmt.Errorf("phy: punctured length %d not a multiple of %d", len(punctured), kept)
	}
	periods := len(punctured) / kept
	if kept == len(keep) {
		// Rate 1/2 steals nothing: the stream is its own expansion.
		return append(dst, punctured...), nil
	}
	n := len(dst)
	dst = slices.Grow(dst, periods*len(keep))[:n+periods*len(keep)]
	out, idx := dst[n:], 0
	for p := 0; p < periods; p++ {
		for j, k := range keep {
			v := 0.0
			if k {
				v = punctured[idx]
				idx++
			}
			out[p*len(keep)+j] = v
		}
	}
	return dst, nil
}
