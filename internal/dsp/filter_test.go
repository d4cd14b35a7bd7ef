package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFIRImpulseResponseEqualsTaps(t *testing.T) {
	taps := []float64{0.25, 0.5, 0.25}
	f := NewFIR(taps)
	in := []complex128{1, 0, 0, 0, 0}
	out := f.Process(Clone(in))
	want := []complex128{0.25, 0.5, 0.25, 0, 0}
	for i := range want {
		if cmplx.Abs(out[i]-want[i]) > 1e-15 {
			t.Fatalf("impulse response %v, want %v", out, want)
		}
	}
}

func TestFIRStreamingMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f1, err := DesignLowpassFIR(31, 0.2, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFIR(f1.taps)
	x := randomSignal(r, 200)

	batch := f1.Process(Clone(x))
	var stream []complex128
	for start := 0; start < len(x); start += 17 { // odd frame size on purpose
		end := start + 17
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, f2.Process(Clone(x[start:end]))...)
	}
	if d := maxAbsDiff(batch, stream); d > 1e-12 {
		t.Errorf("streaming differs from batch by %g", d)
	}
}

func TestFIRReset(t *testing.T) {
	f := NewFIR([]float64{1, 1})
	f.ProcessSample(5)
	f.Reset()
	if got := f.ProcessSample(1); got != 1 {
		t.Errorf("after reset, first output %v, want 1", got)
	}
}

func TestDesignLowpassFIRResponse(t *testing.T) {
	f, err := DesignLowpassFIR(101, 0.125, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	// DC gain exactly one by normalization.
	if g := cmplx.Abs(f.Response(0)); math.Abs(g-1) > 1e-12 {
		t.Errorf("DC gain %v, want 1", g)
	}
	// Passband (well below cutoff) within 0.5 dB.
	if g := cmplx.Abs(f.Response(0.05)); math.Abs(20*math.Log10(g)) > 0.5 {
		t.Errorf("passband gain %v dB, want ~0", 20*math.Log10(g))
	}
	// Stopband (well above cutoff) below -60 dB for a Blackman design.
	if g := cmplx.Abs(f.Response(0.3)); 20*math.Log10(g) > -60 {
		t.Errorf("stopband gain %v dB, want < -60", 20*math.Log10(g))
	}
}

func TestDesignLowpassFIRValidation(t *testing.T) {
	if _, err := DesignLowpassFIR(0, 0.1, Hann); err == nil {
		t.Error("accepted zero taps")
	}
	if _, err := DesignLowpassFIR(11, 0, Hann); err == nil {
		t.Error("accepted zero cutoff")
	}
	if _, err := DesignLowpassFIR(11, 0.5, Hann); err == nil {
		t.Error("accepted cutoff at Nyquist")
	}
}

// TestConvolveKnownValue streams x and then len(h)-1 zeros through the
// FIR, which yields the full linear convolution of x and h.
func TestConvolveKnownValue(t *testing.T) {
	got := NewFIR([]float64{1, 1}).Process([]complex128{1, 2, 3, 0})
	want := []complex128{1, 3, 5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("convolution = %v, want %v", got, want)
		}
	}
}

func TestButterworthLowpassResponse(t *testing.T) {
	f, err := DesignButterworth(5, Lowpass, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MagnitudeDB(0); math.Abs(got) > 1e-9 {
		t.Errorf("DC gain %v dB, want 0", got)
	}
	// -3 dB at the cutoff for Butterworth.
	if got := f.MagnitudeDB(0.1); math.Abs(got+3.01) > 0.1 {
		t.Errorf("cutoff gain %v dB, want -3.01", got)
	}
	// Monotonic and steep beyond cutoff: 5th order gives -30 dB/octave.
	if got := f.MagnitudeDB(0.2); got > -28 {
		t.Errorf("one octave above cutoff %v dB, want < -28", got)
	}
}

func TestButterworthHighpassResponse(t *testing.T) {
	f, err := DesignButterworth(3, Highpass, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MagnitudeDB(0.5); math.Abs(got) > 1e-9 {
		t.Errorf("Nyquist gain %v dB, want 0", got)
	}
	if got := f.MagnitudeDB(0.05); math.Abs(got+3.01) > 0.1 {
		t.Errorf("cutoff gain %v dB, want -3.01", got)
	}
	if got := f.MagnitudeDB(0.01); got > -35 {
		t.Errorf("deep stopband gain %v dB, want < -35", got)
	}
}

func TestChebyshev1LowpassRipple(t *testing.T) {
	const ripple = 0.5
	for _, order := range []int{3, 4, 5, 6, 7} {
		f, err := DesignChebyshev1(order, Lowpass, 0.12, ripple)
		if err != nil {
			t.Fatal(err)
		}
		// Scan the passband: gain must stay within [-ripple, 0] dB
		// (small numerical slack).
		maxG, minG := math.Inf(-1), math.Inf(1)
		for nu := 0.0; nu <= 0.1199; nu += 0.0004 {
			g := f.MagnitudeDB(nu)
			if g > maxG {
				maxG = g
			}
			if g < minG {
				minG = g
			}
		}
		if maxG > 0.02 {
			t.Errorf("order %d: passband peak %v dB > 0", order, maxG)
		}
		if minG < -ripple-0.05 {
			t.Errorf("order %d: passband dip %v dB < -%v", order, minG, ripple)
		}
		// The ripple band must actually be exercised (gain reaches close
		// to both bounds) for orders >= 3.
		if maxG < -0.1 || minG > -ripple+0.1 {
			t.Errorf("order %d: ripple band [%v, %v] dB not exercised", order, minG, maxG)
		}
		// At the passband edge the attenuation equals the ripple.
		if g := f.MagnitudeDB(0.12); math.Abs(g+ripple) > 0.05 {
			t.Errorf("order %d: edge gain %v dB, want -%v", order, g, ripple)
		}
	}
}

func TestChebyshevSteeperThanButterworth(t *testing.T) {
	cb, err := DesignChebyshev1(5, Lowpass, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := DesignButterworth(5, Lowpass, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if cb.MagnitudeDB(0.2) >= bw.MagnitudeDB(0.2) {
		t.Errorf("Chebyshev (%v dB) not steeper than Butterworth (%v dB) at 2x cutoff",
			cb.MagnitudeDB(0.2), bw.MagnitudeDB(0.2))
	}
}

func TestIIRFilterStability(t *testing.T) {
	// Feed white noise through a sharp filter; output must stay bounded.
	f, err := DesignChebyshev1(7, Lowpass, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	var peak float64
	for i := 0; i < 20000; i++ {
		y := f.ProcessSample(complex(r.NormFloat64(), r.NormFloat64()))
		if a := cmplx.Abs(y); a > peak {
			peak = a
		}
	}
	if peak > 100 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		t.Errorf("filter output peak %v indicates instability", peak)
	}
}

func TestIIRStreamingMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f1, _ := DesignButterworth(4, Lowpass, 0.2)
	f2, _ := DesignButterworth(4, Lowpass, 0.2)
	x := randomSignal(r, 300)
	batch := f1.Process(Clone(x))
	var stream []complex128
	for start := 0; start < len(x); start += 23 {
		end := start + 23
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, f2.Process(Clone(x[start:end]))...)
	}
	if d := maxAbsDiff(batch, stream); d > 1e-12 {
		t.Errorf("streaming differs from batch by %g", d)
	}
}

func TestIIRZeroValueIsIdentity(t *testing.T) {
	var f IIR
	x := complex(3, -4)
	if got := f.ProcessSample(x); got != x {
		t.Errorf("zero-value IIR changed sample: %v", got)
	}
}

func TestIIRResetClearsState(t *testing.T) {
	f, _ := DesignButterworth(2, Lowpass, 0.1)
	a := f.ProcessSample(1)
	f.Reset()
	b := f.ProcessSample(1)
	if a != b {
		t.Errorf("Reset did not clear state: %v vs %v", a, b)
	}
}

func TestDCBlockRemovesDC(t *testing.T) {
	f, err := DesignDCBlock(0.001)
	if err != nil {
		t.Fatal(err)
	}
	// A constant input must decay to ~zero.
	var y complex128
	for i := 0; i < 20000; i++ {
		y = f.ProcessSample(complex(1, 0.5))
	}
	if cmplx.Abs(y) > 1e-3 {
		t.Errorf("DC residual %v after settling", cmplx.Abs(y))
	}
	// A mid-band tone must pass with ~unity gain.
	if g := cmplx.Abs(f.Response(0.25)); math.Abs(g-1) > 0.01 {
		t.Errorf("mid-band gain %v, want ~1", g)
	}
	// The corner is at ~-3 dB.
	if g := 20 * math.Log10(cmplx.Abs(f.Response(0.001))); math.Abs(g+3) > 0.5 {
		t.Errorf("corner gain %v dB, want ~-3", g)
	}
}

func TestFilterDesignValidation(t *testing.T) {
	if _, err := DesignButterworth(0, Lowpass, 0.1); err == nil {
		t.Error("accepted order 0")
	}
	if _, err := DesignButterworth(4, Lowpass, 0.6); err == nil {
		t.Error("accepted cutoff beyond Nyquist")
	}
	if _, err := DesignChebyshev1(4, Lowpass, 0.1, 0); err == nil {
		t.Error("accepted zero ripple")
	}
	if _, err := DesignChebyshev1(4, Lowpass, -0.1, 1); err == nil {
		t.Error("accepted negative cutoff")
	}
	if _, err := DesignDCBlock(0.7); err == nil {
		t.Error("accepted DC block cutoff beyond Nyquist")
	}
}

func TestIIROrder(t *testing.T) {
	for _, order := range []int{1, 2, 3, 6, 7} {
		f, err := DesignButterworth(order, Lowpass, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Order(); got != order {
			t.Errorf("Order() = %d, want %d", got, order)
		}
	}
}

// Response evaluates the filter's frequency response at the normalized
// frequency nu in cycles per sample (nu = f/fs, in [-0.5, 0.5]).
func (f *FIR) Response(nu float64) complex128 {
	var re, im float64
	for n, t := range f.taps {
		phase := -2 * math.Pi * nu * float64(n)
		re += t * math.Cos(phase)
		im += t * math.Sin(phase)
	}
	return complex(re, im)
}

// Order returns the filter order (sum of section orders).
func (f *IIR) Order() int {
	order := 0
	for i := range f.Sections {
		if f.Sections[i].B2 != 0 || f.Sections[i].A2 != 0 {
			order += 2
		} else {
			order++
		}
	}
	return order
}

// ProcessSample filters one sample through the cascade.
func (f *IIR) ProcessSample(x complex128) complex128 {
	g := f.Gain
	if g == 0 {
		g = 1 // zero value acts as identity
	}
	y := complex(g*real(x), g*imag(x))
	for i := range f.Sections {
		y = f.Sections[i].ProcessSample(y)
	}
	return y
}

// butterworthPoles returns the normalized (cutoff 1 rad/s) analog poles.
func butterworthPoles(order int) []complex128 {
	poles := make([]complex128, order)
	for k := 1; k <= order; k++ {
		theta := math.Pi * float64(2*k-1) / float64(2*order)
		poles[k-1] = complex(-math.Sin(theta), math.Cos(theta))
	}
	return poles
}

// DesignButterworth designs an order-n Butterworth filter with the passband
// edge at cutoff (fraction of the sample rate, 0 < cutoff < 0.5).
func DesignButterworth(order int, shape FilterShape, cutoff float64) (*IIR, error) {
	if order < 1 {
		return nil, fmt.Errorf("dsp: filter order %d < 1", order)
	}
	return designFromPoles(butterworthPoles(order), shape, cutoff, 1)
}

// ProcessSample filters one sample through the section. The update is
// written over the real and imaginary parts separately: the coefficients are
// real, so the full complex products would spend half their multiplies on
// zero imaginary parts — this is the innermost loop of every filter in the
// receiver chain.
func (q *Biquad) ProcessSample(x complex128) complex128 {
	xr, xi := real(x), imag(x)
	yr := q.B0*xr + real(q.s1)
	yi := q.B0*xi + imag(q.s1)
	q.s1 = complex(q.B1*xr-q.A1*yr+real(q.s2), q.B1*xi-q.A1*yi+imag(q.s2))
	q.s2 = complex(q.B2*xr-q.A2*yr, q.B2*xi-q.A2*yi)
	return complex(yr, yi)
}
