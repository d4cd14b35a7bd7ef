package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFractionalResamplerValidation(t *testing.T) {
	if _, err := NewFractionalResampler(0); err == nil {
		t.Error("accepted zero ratio")
	}
	if _, err := NewFractionalResampler(-1); err == nil {
		t.Error("accepted negative ratio")
	}
	r, err := NewFractionalResampler(1.5)
	if err != nil || r.ratio != 1.5 {
		t.Errorf("ratio %v err %v", r.ratio, err)
	}
}

func TestFractionalResamplerLengthScaling(t *testing.T) {
	for _, ratio := range []float64{0.5, 0.999, 1.0, 1.001, 2.0} {
		r, _ := NewFractionalResampler(ratio)
		n := 10000
		out := r.Process(make([]complex128, n))
		want := float64(n) * ratio
		if math.Abs(float64(len(out))-want) > 5 {
			t.Errorf("ratio %v: output %d samples, want ~%.0f", ratio, len(out), want)
		}
	}
}

func TestFractionalResamplerExactOnQuadraticSignal(t *testing.T) {
	// Uniform Catmull-Rom interpolation reproduces polynomials up to
	// degree 2 exactly; feed a quadratic ramp and check interior outputs
	// sit on the polynomial. Output sample k corresponds to input time
	// t = -1 + k/ratio (the first interpolation interval spans the primed
	// history).
	r, _ := NewFractionalResampler(1.37)
	n := 64
	in := make([]complex128, n)
	f := func(x float64) complex128 {
		return complex(-0.02*x*x+x, -0.5*x+3)
	}
	for i := range in {
		in[i] = f(float64(i))
	}
	out := r.Process(in)
	for k := 4; k < len(out)-4; k++ {
		tIn := -1 + float64(k)/1.37
		want := f(tIn)
		if cmplx.Abs(out[k]-want) > 1e-9 {
			t.Fatalf("output %d = %v, want %v (t=%v)", k, out[k], want, tIn)
		}
	}
}

func TestFractionalResamplerShiftsToneFrequency(t *testing.T) {
	// A tone at nu through a ratio-rho resampler appears at nu/rho.
	rho := 1.002
	r, _ := NewFractionalResampler(rho)
	in := tone(8192, 0.05)
	out := r.Process(in)
	// Measure the average phase step in the steady state.
	var acc float64
	count := 0
	for i := 1000; i < 7000; i++ {
		acc += cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
		count++
	}
	gotNu := acc / float64(count) / (2 * math.Pi)
	want := 0.05 / rho
	if math.Abs(gotNu-want) > 1e-6 {
		t.Errorf("resampled tone at %v cycles/sample, want %v", gotNu, want)
	}
}

func TestFractionalResamplerStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomSignal(rng, 3000)
	r1, _ := NewFractionalResampler(1.0001)
	r2, _ := NewFractionalResampler(1.0001)
	batch := r1.Process(x)
	var stream []complex128
	for start := 0; start < len(x); start += 251 {
		end := start + 251
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, r2.Process(x[start:end])...)
	}
	if len(batch) != len(stream) {
		t.Fatalf("lengths differ: %d vs %d", len(batch), len(stream))
	}
	if d := maxAbsDiff(batch, stream); d > 1e-12 {
		t.Errorf("streaming differs from batch by %g", d)
	}
}

func TestFractionalResamplerReset(t *testing.T) {
	r, _ := NewFractionalResampler(0.75)
	a := r.Process([]complex128{1, 2, 3, 4, 5})
	r.Reset()
	b := r.Process([]complex128{1, 2, 3, 4, 5})
	if len(a) != len(b) {
		t.Fatalf("lengths differ after reset: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Reset did not restore initial state")
		}
	}
}
