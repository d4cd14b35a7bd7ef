package kernels

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// rotRandLanes draws four lanes of n samples and rotators: unit steps at
// random frequencies, or (drifting) steps whose magnitude is off by up to
// 1e-6, so states leave the screening band within a few samples; the
// adversarial lanes carry infinities, NaN and zeros in the samples.
func rotRandLanes(rng *rand.Rand, n int, drifting, adversarial bool) ([4][]complex128, Rotators) {
	var xs [4][]complex128
	var r Rotators
	for k := range xs {
		xs[k] = make([]complex128, n)
		for i := range xs[k] {
			xs[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			if adversarial && rng.Intn(16) == 0 {
				xs[k][i] = []complex128{complex(math.Inf(1), 0), complex(0, math.NaN()),
					complex(math.Copysign(0, -1), 0), complex(1e300, -1e-300)}[rng.Intn(4)]
			}
		}
		for _, base := range []int{RotCoarse, RotFine} {
			step := cmplx.Exp(complex(0, 2*math.Pi*(rng.Float64()-0.5)*0.01))
			if drifting {
				step *= complex(1+(rng.Float64()-0.5)*2e-6, 0)
			}
			r[base+RotRe][k], r[base+RotIm][k] = 1, 0
			r[base+RotStepRe][k], r[base+RotStepIm][k] = real(step), imag(step)
		}
	}
	return xs, r
}

// RotateLanesRef is the oscillator reference for RotateLanes: per lane, in
// Go's complex arithmetic, x*u (then *v), state *= step, and the screening
// test on the new state's squared magnitude. Frozen as the differential-test
// oracle.
func RotateLanesRef(xs [4][]complex128, r *Rotators, both bool) int {
	n := len(xs[0])
	for i := 0; i < n; i++ {
		drift := false
		for k := range xs {
			bases := []int{RotCoarse}
			if both {
				bases = append(bases, RotFine)
			}
			for _, b := range bases {
				u := complex(r[b+RotRe][k], r[b+RotIm][k])
				s := u * complex(r[b+RotStepRe][k], r[b+RotStepIm][k])
				r[b+RotRe][k], r[b+RotIm][k] = real(s), imag(s)
				xs[k][i] *= u
				if m := real(s)*real(s) + imag(s)*imag(s); m < RotDriftLo || m > RotDriftHi {
					drift = true
				}
			}
		}
		if drift {
			return i + 1
		}
	}
	return n
}

func rotBits(t *testing.T, name string, got, want [4][]complex128, gr, wr *Rotators) {
	t.Helper()
	for k := range got {
		re, im := make([]float64, 2*len(got[k])), make([]float64, 2*len(got[k]))
		for i := range got[k] {
			re[2*i], re[2*i+1] = real(got[k][i]), imag(got[k][i])
			im[2*i], im[2*i+1] = real(want[k][i]), imag(want[k][i])
		}
		bitsEqual(t, name+" samples", re, im)
	}
	for row := range gr {
		bitsEqual(t, name+" rotators", gr[row][:], wr[row][:])
	}
}

func rotClone(xs [4][]complex128) [4][]complex128 {
	var out [4][]complex128
	for k := range xs {
		out[k] = append([]complex128(nil), xs[k]...)
	}
	return out
}

// TestExportedRotateKernelsMatchRefBothTiers pins RotateLanes to the
// oscillator reference on both tiers, in both modes, with steady and
// drifting states: the same samples, the same advanced states, and the same
// stopping sample.
func TestExportedRotateKernelsMatchRefBothTiers(t *testing.T) {
	prev := DispatchName() != "purego"
	t.Cleanup(func() { SetDispatch(prev) })
	rng := rand.New(rand.NewSource(23))
	stopped := 0
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(300)
			both := trial%2 == 0
			xs, r := rotRandLanes(rng, n, trial%3 == 0, trial%5 == 0)
			want, wr := rotClone(xs), r
			wn := RotateLanesRef(want, &wr, both)
			gn := RotateLanes(xs[0], xs[1], xs[2], xs[3], &r, both)
			if gn != wn {
				t.Fatalf("simd=%v trial %d: stopped after %d samples, reference %d", simd, trial, gn, wn)
			}
			rotBits(t, "rotate", xs, want, &r, &wr)
			if gn < n {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no drifting state stopped a call")
	}
}

// FuzzRotateLanes drives RotateLanes on both tiers against RotateLanesRef
// with fuzzer-chosen samples and oscillator states and steps (any bit
// patterns, so drifting, NaN and infinite states too): the same samples,
// the same advanced states and the same stopping sample.
func FuzzRotateLanes(f *testing.F) {
	seed := func(mode byte, vals ...float64) []byte {
		b := make([]byte, 1+8*len(vals))
		b[0] = mode
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[1+8*i:], math.Float64bits(v))
		}
		return b
	}
	unit := []float64{1, 0, 0.99, 0.14, 1, 0, 0.999, -0.04}
	f.Add(seed(1, append(append([]float64{}, unit...), 0.5, -1, 2, 0.25, 1, 1, -3, 0.5)...))
	f.Add(seed(0, 1.00001, 0, 1, 1e-3, math.NaN(), 0, 1, 0, math.Inf(1), 2, 0, 1, -1, 0.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		both := data[0]&1 == 1
		vals := fuzzFloats(data[1:], 8+8*32)
		if len(vals) < 8+8 {
			return
		}
		var r Rotators
		for k := 0; k < 4; k++ {
			for row := range r {
				r[row][k] = vals[(row+2*k)%8]
			}
		}
		n := (len(vals) - 8) / 8
		var xs [4][]complex128
		for k := range xs {
			xs[k] = make([]complex128, n)
			for i := range xs[k] {
				xs[k][i] = complex(vals[8+8*i+2*k], vals[8+8*i+2*k+1])
			}
		}
		want, wr := rotClone(xs), r
		wn := RotateLanesRef(want, &wr, both)
		defer SetDispatch(DispatchName() != "purego")
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			got, gr := rotClone(xs), r
			if gn := RotateLanes(got[0], got[1], got[2], got[3], &gr, both); gn != wn {
				t.Fatalf("simd=%v: stopped after %d samples, reference %d", simd, gn, wn)
			}
			rotBits(t, "rotate", got, want, &gr, &wr)
		}
	})
}
