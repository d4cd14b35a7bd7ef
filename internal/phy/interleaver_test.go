package phy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestInterleaverIsPermutation(t *testing.T) {
	for _, mode := range Modes {
		ncbps := mode.NCBPS()
		seen := make([]bool, ncbps)
		for k := 0; k < ncbps; k++ {
			j := interleaveIndex(k, ncbps, mode.NBPSC())
			if j < 0 || j >= ncbps {
				t.Fatalf("%v: index %d out of range for k=%d", mode, j, k)
			}
			if seen[j] {
				t.Fatalf("%v: index %d hit twice", mode, j)
			}
			seen[j] = true
		}
	}
}

func TestInterleaveDeinterleaveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, mode := range Modes {
		in := randomBits(r, mode.NCBPS())
		inter, err := Interleave(in, mode)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Deinterleave(inter, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, out) {
			t.Errorf("%v: round trip failed", mode)
		}
	}
}

func TestDeinterleaveSoftMatchesHard(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	mode := Modes[6] // 48 Mbps, 64-QAM
	in := randomBits(r, mode.NCBPS())
	inter, _ := Interleave(in, mode)
	soft := make([]float64, len(inter))
	for i, b := range inter {
		soft[i] = float64(1 - 2*int(b))
	}
	deSoft, err := DeinterleaveSoftInto(nil, soft, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range in {
		want := float64(1 - 2*int(b))
		if deSoft[i] != want {
			t.Fatalf("soft deinterleave mismatch at %d", i)
		}
	}
}

func TestInterleaverKnownProperty(t *testing.T) {
	// Clause 17.3.5.6 first permutation: adjacent coded bits map to
	// subcarriers 3 apart for BPSK (NCBPS/16 = 3).
	mode := Modes[0]
	ncbps := mode.NCBPS()
	for k := 0; k < 15; k++ {
		j0 := interleaveIndex(k, ncbps, 1)
		j1 := interleaveIndex(k+1, ncbps, 1)
		if j1-j0 != 3 {
			t.Errorf("BPSK: positions %d and %d separated by %d, want 3", k, k+1, j1-j0)
		}
	}
	// The annex G reference: for 16-QAM (NCBPS=192) coded bit 0 stays at 0.
	if got := interleaveIndex(0, 192, 4); got != 0 {
		t.Errorf("16-QAM bit 0 -> %d, want 0", got)
	}
	// Coded bit 1 of 16-QAM lands at position 13 (12 from the first
	// permutation, +1 from the second permutation's LSB/MSB rotation).
	if got := interleaveIndex(1, 192, 4); got != 13 {
		t.Errorf("16-QAM bit 1 -> %d, want 13", got)
	}
}

func TestInterleaverValidation(t *testing.T) {
	mode := Modes[0]
	if _, err := Interleave(make([]byte, 10), mode); err == nil {
		t.Error("accepted wrong length")
	}
	if _, err := Deinterleave(make([]byte, 10), mode); err == nil {
		t.Error("accepted wrong length")
	}
	if _, err := DeinterleaveSoftInto(nil, make([]float64, 10), mode); err == nil {
		t.Error("accepted wrong length")
	}
}

// Deinterleave inverts Interleave on hard bits.
func Deinterleave(bits []byte, mode Mode) ([]byte, error) {
	ncbps := mode.NCBPS()
	if len(bits) != ncbps {
		return nil, fmt.Errorf("phy: deinterleaver input %d bits, want %d", len(bits), ncbps)
	}
	out := make([]byte, ncbps)
	for k, pos := range interleaveTable(mode) {
		out[k] = bits[pos]
	}
	return out, nil
}
