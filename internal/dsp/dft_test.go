package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// DFT computes the forward DFT of any length. Power-of-two lengths route
// through the shared FFT plan cache (O(n log n)); other lengths of at least
// bluesteinMinSize run the Bluestein chirp-z algorithm on top of the same
// plan cache (also O(n log n)); tiny remainders fall back to the direct
// phasor-table evaluation. The paths agree to float rounding (different
// summation orders), which TestDFTRoutingEquivalence pins across both
// routing boundaries.
func DFT(x []complex128) []complex128 {
	n := len(x)
	if n > 0 && n&(n-1) == 0 {
		return FFT(x)
	}
	if n >= bluesteinMinSize {
		return dftBluestein(x)
	}
	return dftDirect(x)
}

// bluesteinMinSize is the length at which the chirp-z path takes over from
// direct summation: below it the three padded FFTs cost more than the O(n^2)
// loop they replace.
const bluesteinMinSize = 32

// bluesteinPlan caches the chirp sequence and the transformed convolution
// kernel for one non-power-of-two size. Immutable once built, safe for
// concurrent use.
type bluesteinPlan struct {
	n     int
	m     int          // padded power-of-two convolution size, >= 2n-1
	plan  *FFTPlan     // shared m-point plan from the global cache
	chirp []complex128 // exp(-i*pi*j^2/n), j in [0, n)
	bft   []complex128 // forward transform of the circular conjugate-chirp kernel
}

var bluesteinCache sync.Map // int -> *bluesteinPlan

func bluesteinFor(n int) *bluesteinPlan {
	if p, ok := bluesteinCache.Load(n); ok {
		return p.(*bluesteinPlan)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	plan, err := PlanFor(m)
	if err != nil {
		panic(err) // unreachable: m is a power of two by construction
	}
	p := &bluesteinPlan{n: n, m: m, plan: plan}
	p.chirp = make([]complex128, n)
	for j := range p.chirp {
		// The chirp phase pi*j^2/n is 2*pi-periodic in j^2 mod 2n; reducing
		// first keeps the Exp argument small for exact phasors at any n.
		p.chirp[j] = cmplx.Exp(complex(0, -math.Pi*float64(j*j%(2*n))/float64(n)))
	}
	b := make([]complex128, m)
	b[0] = 1
	for j := 1; j < n; j++ {
		c := cmplx.Conj(p.chirp[j])
		b[j] = c
		b[m-j] = c
	}
	plan.Forward(b)
	p.bft = b
	actual, _ := bluesteinCache.LoadOrStore(n, p)
	return actual.(*bluesteinPlan)
}

// dftBluestein evaluates the DFT of arbitrary length n as a circular
// convolution of chirp-premultiplied input with a fixed chirp kernel, carried
// out by power-of-two FFTs: X[k] = chirp[k] * sum_j (x[j]*chirp[j]) *
// conj(chirp[k-j]). Cost is three m-point transforms with m < 4n.
func dftBluestein(x []complex128) []complex128 {
	p := bluesteinFor(len(x))
	a := make([]complex128, p.m)
	for i, v := range x {
		a[i] = v * p.chirp[i]
	}
	p.plan.Forward(a)
	for i := range a {
		a[i] *= p.bft[i]
	}
	p.plan.Inverse(a)
	out := make([]complex128, p.n)
	for k := range out {
		out[k] = a[k] * p.chirp[k]
	}
	return out
}

// dftDirect computes the forward DFT by direct summation in O(n^2). It
// accepts any length and is the reference oracle for the FFT tests. The
// phasors exp(-2*pi*i*k*n/N) take only N distinct values, so they are
// tabulated once (N evaluations) and indexed by k*n mod N — no
// transcendental calls and no accumulated rotation drift in the O(n^2) loop.
func dftDirect(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	w := make([]complex128, n)
	for j := range w {
		w[j] = cmplx.Exp(complex(0, -2*math.Pi*float64(j)/float64(n)))
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			sum += x[i] * w[k*i%n]
		}
		out[k] = sum
	}
	return out
}
