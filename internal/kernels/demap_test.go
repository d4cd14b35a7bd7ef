package kernels

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// demapAxes are the clause-17 axis tables (BPSK, QPSK, 16-QAM, 64-QAM), in
// label order with the standard normalizations.
var demapAxes = func() [][2][]float64 {
	gray := func(n int, k float64) []float64 {
		ax := make([]float64, 1<<n)
		for label := range ax {
			g := 0
			for b := n - 1; b >= 0; b-- { // Gray-to-binary of the label bits
				g = g<<1 | ((label>>b)^(g&1))&1
			}
			ax[label] = k * float64(2*g-(1<<n)+1)
		}
		return ax
	}
	return [][2][]float64{
		{gray(1, 1), {0}},
		{gray(1, 1/math.Sqrt2), gray(1, 1/math.Sqrt2)},
		{gray(2, 1/math.Sqrt(10)), gray(2, 1/math.Sqrt(10))},
		{gray(3, 1/math.Sqrt(42)), gray(3, 1/math.Sqrt(42))},
	}
}()

// DemapSoftRef is the max-log reference for DemapSoft: per symbol the joint
// scan over every constellation point complex(axI[k], axQ[q]) (label
// k | q<<bitsI), each bit's metric w*(d1-d0) from its bit-0 and bit-1
// minima, written to the same bit planes. Frozen as the differential-test
// oracle.
func DemapSoftRef(ys []complex128, w []float64, axI, axQ []float64) []float64 {
	bI, bQ := bits.Len(uint(len(axI)))-1, bits.Len(uint(len(axQ)))-1
	n := len(ys)
	planes := make([]float64, (bI+bQ)*n)
	for i, y := range ys {
		for j := 0; j < bI+bQ; j++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for q, xq := range axQ {
				for k, xi := range axI {
					dr, di := real(y)-xi, imag(y)-xq
					d := dr*dr + di*di
					if (k|q<<bI)>>j&1 == 0 {
						d0 = min(d0, d)
					} else {
						d1 = min(d1, d)
					}
				}
			}
			planes[j*n+i] = w[i] * (d1 - d0)
		}
	}
	return planes
}

// demapRandSymbols draws n noisy symbols with weights: Gaussian around the
// axis grid, plus (adversarial) infinities, huge, tiny and denormal
// components and weights, and points exactly on a decision boundary — every
// input the kernels own, none NaN or ±0.
func demapRandSymbols(rng *rand.Rand, n int, adversarial bool) ([]complex128, []float64) {
	ys := make([]complex128, n)
	w := make([]float64, n)
	pick := func() float64 {
		v := rng.NormFloat64()
		if adversarial {
			switch rng.Intn(10) {
			case 0:
				v = math.Inf(1 - 2*rng.Intn(2))
			case 1:
				v = 1e300 * v
			case 2:
				v = 5e-324 * float64(1+rng.Intn(9))
			case 3:
				v = float64(rng.Intn(7)-3) / math.Sqrt(10)
			}
		}
		if v == 0 {
			v = 1
		}
		return v
	}
	for i := range ys {
		ys[i] = complex(pick(), pick())
		w[i] = math.Abs(pick())
	}
	return ys, w
}

func demapPlaneLen(ys []complex128, axI, axQ []float64) int {
	return (bits.Len(uint(len(axI))) + bits.Len(uint(len(axQ))) - 2) * len(ys)
}

// TestExportedDemapKernelsMatchRefBothTiers pins DemapSoft to the joint-scan
// reference on both tiers, on ragged symbol counts (the shared scalar tail),
// and checks that a NaN or ±0 in any component or weight, at any position,
// makes it refuse on both tiers.
func TestExportedDemapKernelsMatchRefBothTiers(t *testing.T) {
	prev := DispatchName() != "purego"
	t.Cleanup(func() { SetDispatch(prev) })
	rng := rand.New(rand.NewSource(22))
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for _, ax := range demapAxes {
			for _, n := range []int{1, 3, 5, 17, 48} {
				for trial := 0; trial < 10; trial++ {
					ys, w := demapRandSymbols(rng, n, trial%2 == 1)
					got := make([]float64, demapPlaneLen(ys, ax[0], ax[1]))
					if !DemapSoft(got, ys, w, ax[0], ax[1]) {
						t.Fatalf("simd=%v: screened inputs rejected", simd)
					}
					bitsEqual(t, "demap", got, DemapSoftRef(ys, w, ax[0], ax[1]))

					i := rng.Intn(n)
					bad := []float64{math.NaN(), 0, math.Copysign(0, -1)}[rng.Intn(3)]
					switch rng.Intn(3) {
					case 0:
						ys[i] = complex(bad, imag(ys[i]))
					case 1:
						ys[i] = complex(real(ys[i]), bad)
					default:
						w[i] = bad
					}
					if DemapSoft(got, ys, w, ax[0], ax[1]) {
						t.Fatalf("simd=%v: %v at symbol %d of %d accepted", simd, bad, i, n)
					}
				}
			}
		}
	}
}

// FuzzDemapSoft drives DemapSoft on both tiers with fuzzer-chosen symbol
// and weight bit patterns: where it accepts, every metric must match the
// joint-scan reference; where it refuses, an input must be NaN or ±0.
func FuzzDemapSoft(f *testing.F) {
	seed := func(mod byte, vals ...float64) []byte {
		b := make([]byte, 1+8*len(vals))
		b[0] = mod
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[1+8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 0.3, -0.9, 1, 1.2, 0.1, 2, -0.4, -0.3, 0.5, 0.9, 0.2, 1, 3, -3, 1, 0.7, 0.7, 0.01))
	f.Add(seed(3, math.Inf(1), 1, 1, -1, math.Inf(-1), 2, 1e300, 5e-324, 1, 0.5, 0.5, 0.5))
	f.Add(seed(0, math.NaN(), 1, 1, 0, 1, 1, 1, 1, 0.25, -1, 2, math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ax := demapAxes[int(data[0])%len(demapAxes)]
		vals := fuzzFloats(data[1:], 3*64)
		n := len(vals) / 3
		if n == 0 {
			return
		}
		ys := make([]complex128, n)
		w := vals[2*n : 3*n]
		special := false
		for i := range ys {
			ys[i] = complex(vals[2*i], vals[2*i+1])
			special = special || demapSpecial(vals[2*i]) || demapSpecial(vals[2*i+1]) || demapSpecial(w[i])
		}
		want := DemapSoftRef(ys, w, ax[0], ax[1])
		defer SetDispatch(DispatchName() != "purego")
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			got := make([]float64, len(want))
			if ok := DemapSoft(got, ys, w, ax[0], ax[1]); ok == special {
				t.Fatalf("simd=%v: accepted %v with special input %v", simd, ok, special)
			} else if ok {
				bitsEqual(t, "demap", got, want)
			}
		}
	})
}
