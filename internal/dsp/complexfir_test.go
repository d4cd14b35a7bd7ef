package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestComplexFIRImpulseResponse(t *testing.T) {
	taps := []complex128{1i, 0.5, -0.25i}
	f, err := NewComplexFIR(taps)
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{1, 0, 0, 0}
	f.Process(x)
	want := []complex128{1i, 0.5, -0.25i, 0}
	for i := range want {
		if cmplx.Abs(x[i]-want[i]) > 1e-15 {
			t.Fatalf("impulse response %v, want %v", x, want)
		}
	}
	if _, err := NewComplexFIR(nil); err == nil {
		t.Error("accepted empty taps")
	}
}

func TestComplexFIRAsymmetricResponse(t *testing.T) {
	// A one-tap rotator followed by a delay realizes a response whose
	// positive and negative frequency behavior differ; verify Response
	// against direct evaluation.
	f, _ := NewComplexFIR([]complex128{0.5, 0.25i})
	for _, nu := range []float64{-0.3, -0.1, 0, 0.1, 0.3} {
		want := 0.5 + 0.25i*cmplx.Exp(complex(0, -2*math.Pi*nu))
		if got := f.Response(nu); cmplx.Abs(got-want) > 1e-12 {
			t.Errorf("response at %v: %v, want %v", nu, got, want)
		}
	}
}

func TestComplexFIRStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	taps := make([]complex128, 17)
	for i := range taps {
		taps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f1, _ := NewComplexFIR(taps)
	f2, _ := NewComplexFIR(taps)
	x := randomSignal(rng, 200)
	batch := f1.Process(Clone(x))
	var stream []complex128
	for s := 0; s < len(x); s += 13 {
		e := s + 13
		if e > len(x) {
			e = len(x)
		}
		stream = append(stream, f2.Process(Clone(x[s:e]))...)
	}
	if d := maxAbsDiff(batch, stream); d > 1e-12 {
		t.Errorf("streaming differs by %g", d)
	}
	f2.Reset()
	if got := f2.Process([]complex128{1})[0]; cmplx.Abs(got-taps[0]) > 1e-15 {
		t.Error("Reset did not clear state")
	}
}

func TestFIRFromFrequencyResponseRoundTrip(t *testing.T) {
	// Sample the response of a known short filter on the grid, rebuild,
	// and compare taps.
	orig := []complex128{0.5, 0.2 - 0.1i, -0.05i, 0.01}
	n := 16
	h := make([]complex128, n)
	ref, _ := NewComplexFIR(orig)
	for k := range h {
		h[k] = ref.Response(float64(k) / float64(n))
	}
	rebuilt, err := FIRFromFrequencyResponse(h)
	if err != nil {
		t.Fatal(err)
	}
	taps := rebuilt.taps
	for i := range orig {
		if cmplx.Abs(taps[i]-orig[i]) > 1e-12 {
			t.Fatalf("tap %d = %v, want %v", i, taps[i], orig[i])
		}
	}
	for i := len(orig); i < n; i++ {
		if cmplx.Abs(taps[i]) > 1e-12 {
			t.Fatalf("spurious tap %d = %v", i, taps[i])
		}
	}
	if _, err := FIRFromFrequencyResponse(make([]complex128, 5)); err == nil {
		t.Error("accepted non-power-of-two grid")
	}
}

// Response evaluates the frequency response at normalized frequency nu.
func (f *ComplexFIR) Response(nu float64) complex128 {
	var h complex128
	for n, t := range f.taps {
		//lint:ignore hotpathexp analysis helper evaluated per frequency point, not per sample
		h += t * cmplx.Exp(complex(0, -2*math.Pi*nu*float64(n)))
	}
	return h
}
