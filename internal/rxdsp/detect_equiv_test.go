package rxdsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Differential suite for the split-complex synchronization kernels: the
// ILP-friendly scalar forms in corrPair and dotConj64 must be bit-identical
// to the retained naive complex-arithmetic references on random and
// adversarial inputs, because FineCFO's estimate feeds a second rotation
// pass over the whole packet — a one-ulp drift there would move the golden
// BER tables.

// corrPairRef is the retained naive complex-arithmetic reference for corrPair;
// the differential test asserts bit equality between the two on random and
// adversarial inputs.
func corrPairRef(seg, ref []complex128, l int) (s1, s2 complex128) {
	for k, r := range ref {
		s1 += seg[l+k] * cmplx.Conj(r)
		s2 += seg[l+64+k] * cmplx.Conj(r)
	}
	return s1, s2
}

// dotConj64Ref is the retained naive reference for dotConj64.
func dotConj64Ref(u, v []complex128) complex128 {
	var c complex128
	for k := 0; k < 64; k++ {
		c += u[k] * cmplx.Conj(v[k])
	}
	return c
}

func bitsEq(a, b complex128) bool {
	re := math.Float64bits(real(a)) == math.Float64bits(real(b)) ||
		(math.IsNaN(real(a)) && math.IsNaN(real(b)))
	im := math.Float64bits(imag(a)) == math.Float64bits(imag(b)) ||
		(math.IsNaN(imag(a)) && math.IsNaN(imag(b)))
	return re && im
}

func randCplx(rng *rand.Rand, scale float64) complex128 {
	return complex(scale*(2*rng.Float64()-1), scale*(2*rng.Float64()-1))
}

func TestCorrPairEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ref := longTD
	for trial := 0; trial < 200; trial++ {
		scale := math.Pow(10, float64(rng.Intn(9)-4)) // 1e-4 .. 1e4
		seg := make([]complex128, len(ref)+64+rng.Intn(200))
		for i := range seg {
			seg[i] = randCplx(rng, scale)
		}
		// Adversarial cancellation: make a stretch nearly equal to the
		// reference so partial sums pass close to zero.
		if trial%3 == 0 {
			off := rng.Intn(len(seg) - len(ref) - 64)
			for k, r := range ref {
				seg[off+k] = r + randCplx(rng, 1e-9)
			}
		}
		for l := 0; l+len(ref)+64 <= len(seg); l++ {
			s1, s2 := corrPair(seg, ref, l)
			r1, r2 := corrPairRef(seg, ref, l)
			if !bitsEq(s1, r1) || !bitsEq(s2, r2) {
				t.Fatalf("trial %d lag %d: corrPair (%v,%v) != ref (%v,%v)",
					trial, l, s1, s2, r1, r2)
			}
		}
	}
}

func TestCorrPairEquivalenceSpecials(t *testing.T) {
	ref := longTD
	seg := make([]complex128, len(ref)+64)
	specials := []complex128{
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
		complex(math.NaN(), 1),
		complex(math.MaxFloat64, -math.MaxFloat64),
		complex(math.SmallestNonzeroFloat64, 5e-324),
		complex(math.Copysign(0, -1), 0),
	}
	rng := rand.New(rand.NewSource(52))
	for _, sp := range specials {
		for i := range seg {
			seg[i] = randCplx(rng, 1)
		}
		seg[rng.Intn(len(seg))] = sp
		s1, s2 := corrPair(seg, ref, 0)
		r1, r2 := corrPairRef(seg, ref, 0)
		if !bitsEq(s1, r1) || !bitsEq(s2, r2) {
			t.Fatalf("special %v: corrPair (%v,%v) != ref (%v,%v)", sp, s1, s2, r1, r2)
		}
	}
}

func TestDotConj64Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 500; trial++ {
		scale := math.Pow(10, float64(rng.Intn(9)-4))
		u := make([]complex128, 64)
		v := make([]complex128, 64)
		for i := range u {
			u[i] = randCplx(rng, scale)
			v[i] = randCplx(rng, scale)
		}
		if trial%4 == 0 {
			// Correlated halves exercise near-cancellation in the imag part.
			copy(v, u)
		}
		got, want := dotConj64(u, v), dotConj64Ref(u, v)
		if !bitsEq(got, want) {
			t.Fatalf("trial %d: dotConj64 %v != ref %v", trial, got, want)
		}
	}
}

func TestFineTimingMatchesReferenceSearch(t *testing.T) {
	// End-to-end: the lag FineTiming picks must equal the one a pure
	// reference-arithmetic search picks on a realistic noisy preamble.
	rng := rand.New(rand.NewSource(54))
	ref := longTD
	lp := make([]complex128, 0, 400)
	for i := 0; i < 100; i++ {
		lp = append(lp, randCplx(rng, 0.3))
	}
	lp = append(lp, ref...)
	lp = append(lp, ref...)
	for i := 0; i < 100; i++ {
		lp = append(lp, randCplx(rng, 0.3))
	}
	for i := range lp {
		lp[i] += randCplx(rng, 0.05)
	}
	got, err := FineTiming(lp, 0, len(lp)-len(ref)-64)
	if err != nil {
		t.Fatal(err)
	}
	best, bestMag := -1, 0.0
	for l := 0; l+len(ref)+64 <= len(lp); l++ {
		s1, s2 := corrPairRef(lp, ref, l)
		if m := cmplxAbs(s1) + cmplxAbs(s2); m > bestMag {
			best, bestMag = l, m
		}
	}
	if got != best {
		t.Fatalf("FineTiming picked %d, reference search picked %d", got, best)
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
