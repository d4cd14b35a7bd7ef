package phy

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestScramblerSequence127(t *testing.T) {
	// First 16 bits of the all-ones-seed sequence per clause 17.3.5.4:
	// 00001110 11110010.
	want := []byte{0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0}
	seq := Sequence127()
	if len(seq) != 127 {
		t.Fatalf("sequence length %d", len(seq))
	}
	for i, w := range want {
		if seq[i] != w {
			t.Fatalf("sequence[%d] = %d, want %d (prefix %v)", i, seq[i], w, seq[:16])
		}
	}
	// The final 7 bits must regenerate the all-ones state: sequence is
	// periodic with period 127, so bit 127 equals bit 0.
	s := NewScrambler(0x7F)
	for i := 0; i < 127; i++ {
		s.NextBit()
	}
	if b := s.NextBit(); b != seq[0] {
		t.Errorf("sequence not periodic: bit 127 = %d, want %d", b, seq[0])
	}
}

func TestScramblerPeriodIs127(t *testing.T) {
	// The maximal-length LFSR must visit all 127 nonzero states.
	s := NewScrambler(0x7F)
	seen := map[byte]bool{}
	for i := 0; i < 127; i++ {
		if seen[s.state] {
			t.Fatalf("state %#x repeated before period 127 (i=%d)", s.state, i)
		}
		seen[s.state] = true
		s.NextBit()
	}
	if s.state != 0x7F {
		t.Errorf("state after 127 steps %#x, want 0x7F", s.state)
	}
}

func TestScramblerInvolutionProperty(t *testing.T) {
	f := func(seed byte, data []byte) bool {
		in := make([]byte, len(data))
		for i, d := range data {
			in[i] = d & 1
		}
		buf := append([]byte(nil), in...)
		NewScrambler(seed).Process(buf)
		NewScrambler(seed).Process(buf)
		return bytes.Equal(buf, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScramblerZeroSeedRemapped(t *testing.T) {
	s := NewScrambler(0)
	if s.state == 0 {
		t.Fatal("zero seed produced a stuck scrambler")
	}
}

func TestPilotPolarityKnownValues(t *testing.T) {
	// Clause 17.3.5.9: p_0..p_15 = 1,1,1,1,-1,-1,-1,1,-1,-1,-1,-1,1,1,-1,1.
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1}
	for i, w := range want {
		if got := PilotPolarity(i); got != w {
			t.Errorf("p_%d = %v, want %v", i, got, w)
		}
	}
	// Periodicity with 127.
	if PilotPolarity(127) != PilotPolarity(0) {
		t.Error("pilot polarity not 127-periodic")
	}
}

func TestRecoverScramblerSeed(t *testing.T) {
	for seed := byte(1); seed < 128; seed++ {
		s := NewScrambler(seed)
		first7 := make([]byte, 7)
		for i := range first7 {
			first7[i] = s.NextBit()
		}
		if got := recoverScramblerSeed(first7); got != seed {
			t.Errorf("seed %#x recovered as %#x", seed, got)
		}
	}
}
