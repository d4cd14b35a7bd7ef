package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"wlansim/internal/units"
)

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randomSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestNewFFTPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 12, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d) accepted a non-power-of-two size", n)
		}
	}
	for _, n := range []int{1, 2, 64, 1024} {
		if _, err := NewFFTPlan(n); err != nil {
			t.Errorf("NewFFTPlan(%d): %v", n, err)
		}
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randomSignal(r, n)
		got := FFT(x)
		want := dftDirect(x)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT differs from direct DFT by %g", n, d)
		}
	}
}

// TestDFTRoutingEquivalence pins DFT's routing boundaries: power-of-two
// lengths take the FFT plan cache and must agree with the direct oracle to
// float rounding; non-powers of two at least bluesteinMinSize take the
// chirp-z path (same tolerance); smaller lengths take the direct path and
// must agree with the oracle bit-exactly. The sizes bracket both boundaries
// (n and n±1) so a routing-predicate regression cannot hide.
func TestDFTRoutingEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1023, 1024} {
		x := randomSignal(r, n)
		got := DFT(x)
		want := dftDirect(x)
		switch {
		case n&(n-1) == 0:
			if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
				t.Errorf("n=%d (pow2, FFT-routed): differs from direct oracle by %g", n, d)
			}
			// The fast path must be the plan-cache FFT, not a re-derivation:
			// bit-identical to FFT on the same input.
			if d := maxAbsDiff(got, FFT(x)); d != 0 {
				t.Errorf("n=%d: DFT fast path differs from FFT by %g", n, d)
			}
		case n >= bluesteinMinSize:
			if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
				t.Errorf("n=%d (chirp-z-routed): differs from direct oracle by %g", n, d)
			}
		default:
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d (direct-routed): bin %d differs from oracle: %v vs %v", n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDFTBluesteinMatchesDirect sweeps awkward non-power-of-two lengths —
// primes, prime powers, highly composite sizes, and the padding boundary
// where 2n-1 just crosses a power of two — against the direct-summation
// oracle.
func TestDFTBluesteinMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{32, 33, 37, 61, 81, 100, 127, 129, 255, 257, 343, 500, 509, 512 + 1, 719, 1000} {
		x := randomSignal(r, n)
		got := dftBluestein(x)
		want := dftDirect(x)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: chirp-z differs from direct oracle by %g", n, d)
		}
	}
	// The chirp-z path must also invert cleanly through the pow2 IFFT used
	// in round-trip consumers: spectrum of a pure tone concentrates in one
	// bin.
	n := 257
	x := make([]complex128, n)
	for i := range x {
		s, c := math.Sincos(2 * math.Pi * 17 * float64(i) / float64(n))
		x[i] = complex(c, s)
	}
	fx := dftBluestein(x)
	for k := range fx {
		mag := cmplx.Abs(fx[k])
		if k == 17 {
			if math.Abs(mag-float64(n)) > 1e-8*float64(n) {
				t.Errorf("tone bin magnitude %g, want %d", mag, n)
			}
		} else if mag > 1e-8*float64(n) {
			t.Errorf("leakage %g in bin %d", mag, k)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 128, 1024} {
		x := randomSignal(r, n)
		y := IFFT(FFT(x))
		if d := maxAbsDiff(x, y); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// Impulse transforms to all-ones.
	x := []complex128{1, 0, 0, 0}
	for i, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
	// Single complex tone at bin 1 of a 8-point transform.
	n := 8
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(i)/float64(n)))
	}
	ft := FFT(tone)
	for k, v := range ft {
		want := complex(0, 0)
		if k == 1 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Errorf("tone FFT bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(ar, ai, br, bi float64) bool {
		a := complex(math.Mod(ar, 10), math.Mod(ai, 10))
		b := complex(math.Mod(br, 10), math.Mod(bi, 10))
		x := randomSignal(r, 64)
		y := randomSignal(r, 64)
		z := make([]complex128, 64)
		for i := range z {
			z[i] = a*x[i] + b*y[i]
		}
		fz := FFT(z)
		fx := FFT(x)
		fy := FFT(y)
		for i := range fz {
			if cmplx.Abs(fz[i]-(a*fx[i]+b*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		x := randomSignal(r, 256)
		fx := FFT(x)
		et := units.MeanPower(x)
		ef := units.MeanPower(fx) / 256
		return math.Abs(et-ef) < 1e-8*et
	}
	for i := 0; i < 20; i++ {
		if !f() {
			t.Fatal("Parseval's theorem violated")
		}
	}
}

func TestFFTPanicsOnWrongLength(t *testing.T) {
	p, _ := NewFFTPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestFFTPlanConcurrentUse(t *testing.T) {
	// A plan is documented as safe for concurrent use: hammer one plan
	// from several goroutines and verify every result.
	p, err := NewFFTPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	inputs := make([][]complex128, 16)
	wants := make([][]complex128, 16)
	for i := range inputs {
		inputs[i] = randomSignal(r, 256)
		wants[i] = dftDirect(inputs[i])
	}
	done := make(chan error, len(inputs))
	for i := range inputs {
		go func(i int) {
			buf := make([]complex128, 256)
			copy(buf, inputs[i])
			p.Forward(buf)
			if d := maxAbsDiff(buf, wants[i]); d > 1e-8 {
				done <- fmt.Errorf("goroutine %d: diff %g", i, d)
				return
			}
			done <- nil
		}(i)
	}
	for range inputs {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
