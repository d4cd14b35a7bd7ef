package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"wlansim/internal/phy/viterbi"
)

func TestConvolutionalEncodeKnownVector(t *testing.T) {
	// Impulse response of the 133/171 code: input 1 followed by zeros
	// produces the generator taps as outputs.
	in := []byte{1, 0, 0, 0, 0, 0, 0}
	out := ConvolutionalEncode(in)
	// g0 = 1011011, g1 = 1111001 read from current bit to oldest:
	// step k output A = coefficient of x^k in g0 (MSB-first: 1,0,1,1,0,1,1).
	wantA := []byte{1, 0, 1, 1, 0, 1, 1}
	wantB := []byte{1, 1, 1, 1, 0, 0, 1}
	for k := 0; k < 7; k++ {
		if out[2*k] != wantA[k] {
			t.Errorf("A[%d] = %d, want %d", k, out[2*k], wantA[k])
		}
		if out[2*k+1] != wantB[k] {
			t.Errorf("B[%d] = %d, want %d", k, out[2*k+1], wantB[k])
		}
	}
}

func TestConvolutionalEncodeLinearity(t *testing.T) {
	// Convolutional codes are linear: enc(a XOR b) = enc(a) XOR enc(b).
	r := rand.New(rand.NewSource(1))
	a := randomBits(r, 64)
	b := randomBits(r, 64)
	sum := make([]byte, 64)
	for i := range sum {
		sum[i] = a[i] ^ b[i]
	}
	ea, eb, es := ConvolutionalEncode(a), ConvolutionalEncode(b), ConvolutionalEncode(sum)
	for i := range es {
		if es[i] != ea[i]^eb[i] {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestPunctureRates(t *testing.T) {
	coded := make([]byte, 24)
	for i := range coded {
		coded[i] = byte(i % 2)
	}
	p12, err := PunctureAppend(nil, coded, Rate1_2)
	if err != nil || len(p12) != 24 {
		t.Fatalf("rate 1/2: len %d err %v", len(p12), err)
	}
	p23, err := PunctureAppend(nil, coded, Rate2_3)
	if err != nil || len(p23) != 18 {
		t.Fatalf("rate 2/3: len %d err %v", len(p23), err)
	}
	p34, err := PunctureAppend(nil, coded, Rate3_4)
	if err != nil || len(p34) != 16 {
		t.Fatalf("rate 3/4: len %d err %v", len(p34), err)
	}
	if _, err := PunctureAppend(nil, coded, CodeRate(9)); err == nil {
		t.Error("accepted unknown rate")
	}
}

func TestPunctureKeepsRightPositions(t *testing.T) {
	// Mark each position with its index to verify which ones survive.
	coded := make([]byte, 12)
	for i := range coded {
		coded[i] = byte(i)
	}
	p34, _ := PunctureAppend(nil, coded, Rate3_4)
	// Period 6: keep 0,1,3,4 (A1 B1 B2 A3); stolen 2 (A2) and 5 (B3).
	want := []byte{0, 1, 3, 4, 6, 7, 9, 10}
	for i, w := range want {
		if p34[i] != w {
			t.Fatalf("rate 3/4 kept %v, want %v", p34, want)
		}
	}
	p23, _ := PunctureAppend(nil, coded, Rate2_3)
	want23 := []byte{0, 1, 2, 4, 5, 6, 8, 9, 10}
	for i, w := range want23 {
		if p23[i] != w {
			t.Fatalf("rate 2/3 kept %v, want %v", p23, want23)
		}
	}
}

func TestDepunctureRestoresPositions(t *testing.T) {
	soft := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	out, err := DepunctureAppend(nil, soft, Rate3_4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0}
	if len(out) != len(want) {
		t.Fatalf("length %d, want %d", len(out), len(want))
	}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("Depuncture = %v, want %v", out, want)
		}
	}
}

func TestDepunctureValidation(t *testing.T) {
	if _, err := DepunctureAppend(nil, make([]float64, 7), Rate3_4); err == nil {
		t.Error("accepted length not matching puncture period")
	}
}

func TestPunctureDepunctureRoundTripDecodes(t *testing.T) {
	// Full code path: encode, puncture, depuncture with erasures, Viterbi.
	r := rand.New(rand.NewSource(2))
	for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
		n := 144 // divisible by all puncture periods after encoding
		data := append(randomBits(r, n), make([]byte, TailBits)...)
		coded := ConvolutionalEncode(data)
		punct, err := PunctureAppend(nil, coded, rate)
		if err != nil {
			t.Fatal(err)
		}
		soft := make([]float64, len(punct))
		for i, b := range punct {
			if b == 0 {
				soft[i] = 1
			} else {
				soft[i] = -1
			}
		}
		dep, err := DepunctureAppend(nil, soft, rate)
		if err != nil {
			t.Fatal(err)
		}
		if len(dep) != len(coded) {
			t.Fatalf("rate %v: depunctured %d, want %d", rate, len(dep), len(coded))
		}
		dec, err := viterbi.New().DecodeSoftInto(nil, dep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, data) {
			t.Errorf("rate %v: punctured round trip failed", rate)
		}
	}
}

func TestCodedLength(t *testing.T) {
	if CodedLength(24, Rate1_2) != 48 {
		t.Error("1/2")
	}
	if CodedLength(32, Rate2_3) != 48 {
		t.Error("2/3")
	}
	if CodedLength(36, Rate3_4) != 48 {
		t.Error("3/4")
	}
	if CodedLength(10, CodeRate(9)) != 0 {
		t.Error("unknown rate should give 0")
	}
}

// CodedLength returns the number of coded bits produced from n data bits at
// the given rate (n must yield an integral number of puncturing periods for
// the punctured rates; clause 17 guarantees this by construction).
func CodedLength(n int, rate CodeRate) int {
	switch rate {
	case Rate1_2:
		return 2 * n
	case Rate2_3:
		return n * 3 / 2
	case Rate3_4:
		return n * 4 / 3
	default:
		return 0
	}
}
