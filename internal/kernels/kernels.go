// Package kernels is the instruction-level-parallelism layer of the
// simulator: the handful of numeric inner loops that dominate packet run
// time — Viterbi add-compare-select, FIR convolution, mixer/LO rotation,
// FFT butterfly stages, the sine/cosine of the co-sim oscillator bank's
// phase planes (Sincos), the fast path of the ziggurat normal draw behind
// every noise plane (NormDraws) and the receiver's AGC law (AGCLanes) —
// rewritten on a planar (structure-of-arrays) split-complex representation
// with explicit unrolling, and nothing else.
//
// The package carries two execution tiers behind one API. Every exported
// kernel dispatches between a pure-Go twin (fooGo) and, on amd64 with AVX2,
// a hand-written assembly body (fooAsm in simd_amd64.s, the AGC's in
// agc_amd64.s) that maps one ymm lane to one independent scalar chain —
// same operations, same order, one rounding per operation, no FMA — so the
// tiers are bit-identical by construction, not by tolerance. Selection is
// runtime CPU detection (cpu_amd64.s, no external deps) gated by the
// WLANSIM_SIMD environment variable and SetDispatch; building with -tags
// purego removes the assembly tier entirely.
//
// Contract, enforced by the wlanlint kernelpure and asmtwin analyzers and
// the package's differential test suite:
//
//   - every kernel is bit-exact against a retained naive reference
//     implementation (the *Ref functions, kept in ref_test.go unless
//     production also calls them, like ACSStepRef and NormDrawsRef) on all
//     inputs, adversarial values included;
//   - every assembly stub fooAsm has a pure-Go twin fooGo of identical
//     signature, bit-identical on all inputs, exercised differentially by
//     the asmtwins suite under both dispatch settings;
//   - the package imports only "math" (kernels) and "os" (the dispatch
//     gate): no allocation sources, no I/O, no RNG state of its own
//     (stochastic inputs, and the generator register the normal-draw
//     kernels advance, are owned by the caller and passed in);
//   - hot functions allocate nothing — buffers are owned by the caller,
//     typically as Vec fields grown once via Grow;
//   - Go loop bodies contain no complex128 arithmetic: operands arrive
//     split into real and imaginary planes so the compiler schedules
//     independent scalar chains instead of the 4-mul/2-add complex lockstep.
package kernels

// Vec is a split-complex vector: Re[i] + i*Im[i]. The planar layout is the
// package's working representation; convert at stage boundaries with From
// and CopyTo, amortizing the transpose once per frame instead of paying
// interleaved access in every inner loop.
type Vec struct {
	Re, Im []float64
}

// Len returns the vector length.
func (v *Vec) Len() int { return len(v.Re) }

// Grow resizes the vector to n elements, reusing capacity when possible.
// Contents are unspecified after growth; only Grow allocates, so a Vec held
// across frames reaches a zero-allocation steady state.
func (v *Vec) Grow(n int) {
	if cap(v.Re) < n {
		v.Re = make([]float64, n)
		v.Im = make([]float64, n)
	}
	v.Re = v.Re[:n]
	v.Im = v.Im[:n]
}

// From fills the vector with the planes of x, growing it to len(x).
func (v *Vec) From(x []complex128) {
	v.Grow(len(x))
	Deinterleave(v.Re, v.Im, x)
}

// CopyTo interleaves the vector back into x, which must have length Len.
//
//lint:hotpath
func (v *Vec) CopyTo(x []complex128) {
	Interleave(x[:len(v.Re)], v.Re, v.Im)
}
