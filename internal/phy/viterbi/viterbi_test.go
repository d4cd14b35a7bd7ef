package viterbi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The generator polynomials of the clause-17 mother code (133/171 octal).
const (
	genA = 0o133
	genB = 0o171
)

// The branch outputs of target state s's transition from p(r) depend only on
// the 7-bit register value (s>>5)<<6 | p(r), so they collapse into two sign
// tables indexed by (s<<1)|r: +1 where the encoder emits coded bit 0 (the
// soft metric counts toward the path), -1 where it emits 1 (it counts
// against). The tables document the trellis structure kernels.ACSRunBatch walks
// and anchor the structural tests.
var signA, signB [2 * numStates]float64

func parity7(v int) byte {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

func init() {
	for s := 0; s < numStates; s++ {
		for r := 0; r < 2; r++ {
			p := ((s << 1) | r) & (numStates - 1)
			reg := (s>>5)<<6 | p
			signA[s<<1|r] = 1 - 2*float64(parity7(reg&genA))
			signB[s<<1|r] = 1 - 2*float64(parity7(reg&genB))
		}
	}
}

// encode mirrors the clause-17 encoder for test purposes.
func encode(bits []byte) []byte {
	out := make([]byte, 0, len(bits)*2)
	state := 0
	for _, b := range bits {
		reg := int(b&1)<<6 | state
		out = append(out, parity7(reg&genA), parity7(reg&genB))
		state = reg >> 1
	}
	return out
}

func withTail(data []byte) []byte {
	out := append([]byte(nil), data...)
	return append(out, make([]byte, 6)...)
}

func randomBits(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Intn(2))
	}
	return out
}

func TestTrellisKnownOutputs(t *testing.T) {
	// From the zero state, input 1 produces outputs A=1, B=1 (both
	// generators include the current bit) and lands in state 0x20. In the
	// target-state indexing that is s=0x20 reached from predecessor
	// p = ((s<<1)|r)&63 = r, so r=0; coded bit 1 maps to sign -1.
	if got := signA[0x20<<1]; got != -1 {
		t.Errorf("state 0 input 1: signA = %v, want -1", got)
	}
	if got := signB[0x20<<1]; got != -1 {
		t.Errorf("state 0 input 1: signB = %v, want -1", got)
	}
	// Input 0 from state 0 stays at 0 (s=0, r=0) with outputs 0,0.
	if signA[0] != 1 || signB[0] != 1 {
		t.Errorf("state 0 input 0: signs %v,%v, want 1,1", signA[0], signB[0])
	}
}

// TestSignTablesMatchEncoder cross-checks every branch of the flattened
// trellis against the reference encoder: running one bit through encode from
// each register state must reproduce the sign-table outputs and the
// predecessor/target relation used by the ACS loop and traceback.
func TestSignTablesMatchEncoder(t *testing.T) {
	for s := 0; s < numStates; s++ {
		for r := 0; r < 2; r++ {
			p := ((s << 1) | r) & (numStates - 1)
			b := s >> 5 // input bit of every transition into s
			reg := b<<6 | p
			if next := reg >> 1; next != s {
				t.Fatalf("s=%d r=%d: predecessor %d with bit %d lands in %d", s, r, p, b, next)
			}
			wantA := 1 - 2*float64(parity7(reg&genA))
			wantB := 1 - 2*float64(parity7(reg&genB))
			if signA[s<<1|r] != wantA || signB[s<<1|r] != wantB {
				t.Fatalf("s=%d r=%d: signs %v,%v, want %v,%v",
					s, r, signA[s<<1|r], signB[s<<1|r], wantA, wantB)
			}
		}
	}
}

func TestDecodeNoiselessRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 8, 100, 999} {
		data := withTail(randomBits(r, n))
		coded := encode(data)
		got, err := New().DecodeHard(coded)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != len(data) {
			t.Fatalf("n=%d: decoded %d bits, want %d", n, len(got), len(data))
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	// The free distance of the 133/171 code is 10; up to 4 well-separated
	// channel errors are always correctable.
	r := rand.New(rand.NewSource(2))
	data := withTail(randomBits(r, 200))
	coded := encode(data)
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), coded...)
		// Flip 4 bits spaced far apart.
		for k := 0; k < 4; k++ {
			pos := (trial*13 + k*100) * 2 % len(corrupted)
			corrupted[pos] ^= 1
		}
		got, err := New().DecodeHard(corrupted)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("trial %d: bit %d not corrected", trial, i)
			}
		}
	}
}

func TestDecodeSoftBeatsHardWithErasures(t *testing.T) {
	// With erasures marked (metric 0) the decoder must still recover the
	// message; with the same positions hard-decided wrongly it may not.
	r := rand.New(rand.NewSource(3))
	data := withTail(randomBits(r, 120))
	coded := encode(data)
	soft := make([]float64, len(coded))
	for i, b := range coded {
		if i%7 == 3 {
			soft[i] = 0 // erasure
			continue
		}
		if b == 0 {
			soft[i] = 1
		} else {
			soft[i] = -1
		}
	}
	got, err := New().DecodeSoftInto(nil, soft)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("bit %d not recovered from erasures", i)
		}
	}
}

func TestDecodeSoftWeighting(t *testing.T) {
	// Strong correct metrics must dominate weak wrong ones.
	data := withTail([]byte{1, 0, 1, 1, 0, 0, 1, 0})
	coded := encode(data)
	soft := make([]float64, len(coded))
	for i, b := range coded {
		v := 5.0
		if b == 1 {
			v = -5.0
		}
		soft[i] = v
	}
	// Inject weak opposite-sign noise on a few positions.
	soft[2] = -soft[2] / 10
	soft[9] = -soft[9] / 10
	got, err := New().DecodeSoftInto(nil, soft)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("bit %d wrong under weighted soft decoding", i)
		}
	}
}

func TestUnterminatedDecoding(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := randomBits(r, 64) // no tail
	coded := encode(data)
	d := &Decoder{Terminated: false}
	got, err := d.DecodeHard(coded)
	if err != nil {
		t.Fatal(err)
	}
	// All but the last few (traceback-ambiguous) bits must match.
	for i := 0; i < len(data)-6; i++ {
		if got[i] != data[i] {
			t.Fatalf("bit %d differs in unterminated decode", i)
		}
	}
}

func TestDecodeValidation(t *testing.T) {
	if _, err := New().DecodeSoftInto(nil, make([]float64, 3)); err == nil {
		t.Error("accepted odd-length soft stream")
	}
	if _, err := New().DecodeHard([]byte{0, 2}); err == nil {
		t.Error("accepted non-bit value")
	}
	if out, err := New().DecodeSoftInto(nil, nil); err != nil || out != nil {
		t.Error("empty stream should decode to nothing")
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(n uint8) bool {
		data := withTail(randomBits(r, int(n)+1))
		got, err := New().DecodeHard(encode(data))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// DecodeHard decodes hard-decision coded bits (the interleaved A/B stream of
// the encoder). Bits beyond 1 are rejected.
func (d *Decoder) DecodeHard(coded []byte) ([]byte, error) {
	soft := make([]float64, len(coded))
	for i, b := range coded {
		switch b {
		case 0:
			soft[i] = 1
		case 1:
			soft[i] = -1
		default:
			return nil, fmt.Errorf("viterbi: value %d at index %d is not a bit", b, i)
		}
	}
	return d.DecodeSoftInto(nil, soft)
}
