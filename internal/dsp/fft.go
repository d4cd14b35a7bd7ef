// Package dsp provides the signal-processing primitives the simulator is
// built on: FFTs, window functions, FIR and IIR filter design and filtering,
// resampling, frequency shifting, correlation and spectral estimation.
//
// All routines operate on complex128 baseband samples. Filters carry
// streaming state so that long signals can be processed frame by frame, which
// is how the sim engine drives them.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"wlansim/internal/kernels"
)

// FFTPlan caches the twiddle factors and bit-reversal permutation for a fixed
// power-of-two transform size, plus the planar split-complex machinery the
// transform actually runs on: per-stage twiddle planes (forward and exactly
// conjugated inverse tables, so the stage loop carries neither the k*step
// index multiply nor the inverse-conjugation branch) and a pool of planar
// scratch frames, so steady-state transforms allocate nothing. A plan is safe
// for concurrent use once built.
type FFTPlan struct {
	n       int
	twiddle []complex128 // exp(-2*pi*i*k/n) for k in [0, n/2)
	rev     []int
	rev64   []int64 // rev as gather indices for kernels.FFTPermute
	stages  int     // log2(n)
	// Per-stage twiddle planes: stage s (half = 1<<s) reads stageWr[s][k] +
	// i*fwdWi[s][k]; the inverse transform swaps in invWi[s] — the exact
	// negation of fwdWi[s], bit-identical to cmplx.Conj of each factor. The
	// real planes are shared: conjugation only flips the imaginary part.
	stageWr [][]float64
	fwdWi   [][]float64
	invWi   [][]float64
	scratch sync.Pool // *fftScratch
}

// fftScratch holds the planar working set of one in-flight transform: the
// deinterleaved input planes, the bit-reversed butterfly planes, and the
// lane-interleaved quad planes used by the batched ForwardMany/InverseMany
// path. One allocation per worker at steady state, reused via the plan pool;
// the quad planes, twice the size of the rest together, are added on a
// scratch's first batched transform, so single-frame users (the
// overlap-save convolutions) never carry them.
type fftScratch struct {
	sre, sim []float64 // deinterleaved input (also inverse-path second pair)
	pre, pim []float64 // bit-reversed working planes the stages run on
	qre, qim []float64 // lane-interleaved planes for four-frame batches
}

// NewFFTPlan builds a plan for an n-point transform. n must be a power of two
// and at least 1.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two", n)
	}
	p := &FFTPlan{n: n, stages: bits.TrailingZeros(uint(n))}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		//lint:ignore hotpathexp one-time twiddle table construction at plan creation
		p.twiddle[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	p.rev = make([]int, n)
	p.rev64 = make([]int64, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
		p.rev64[i] = int64(p.rev[i])
	}
	p.stageWr = make([][]float64, p.stages)
	p.fwdWi = make([][]float64, p.stages)
	p.invWi = make([][]float64, p.stages)
	for s := 0; s < p.stages; s++ {
		half := 1 << s
		step := n / (2 * half)
		wr := make([]float64, half)
		fwi := make([]float64, half)
		iwi := make([]float64, half)
		for k := 0; k < half; k++ {
			w := p.twiddle[k*step]
			wr[k], fwi[k] = real(w), imag(w)
			iwi[k] = -imag(w) // == imag(cmplx.Conj(w)), exactly
		}
		p.stageWr[s], p.fwdWi[s], p.invWi[s] = wr, fwi, iwi
	}
	p.scratch.New = func() any {
		return &fftScratch{
			sre: make([]float64, n), sim: make([]float64, n),
			pre: make([]float64, n), pim: make([]float64, n),
		}
	}
	return p, nil
}

// Forward computes the in-place forward DFT of x, which must have the plan's
// length. The transform is unnormalized: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
//
//lint:hotpath
func (p *FFTPlan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization so that Inverse(Forward(x)) == x.
//
//lint:hotpath
func (p *FFTPlan) Inverse(x []complex128) {
	p.transform(x, true)
}

// transform runs the planar split-complex pipeline: deinterleave into pooled
// planes, out-of-place bit-reversal gather, one kernels.FFTStage call per
// stage against the precomputed twiddle planes (the inverse path swaps in
// the conjugate table instead of branching per butterfly), the 1/N
// normalization as a planar complex scale on the inverse path, and
// reinterleave. Bit-identical to the frozen scalar transformRef (plus its
// caller's scale loop on the inverse path): each plane element carries one
// unchanged scalar butterfly chain in the compiler's own complex128
// lowering. Allocation-free at steady state — the planar working set comes
// from the plan's scratch pool.
//
//lint:hotpath
func (p *FFTPlan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		//lint:ignore escape panic path only: the formatted lengths box
		panic(fmt.Sprintf("dsp: FFT input length %d does not match plan size %d", len(x), p.n))
	}
	s := p.scratch.Get().(*fftScratch)
	kernels.Deinterleave(s.sre, s.sim, x)
	kernels.FFTPermute(s.pre, s.sre, p.rev64)
	kernels.FFTPermute(s.pim, s.sim, p.rev64)
	p.stagesInPlace(s.pre, s.pim, inverse, 0, p.n)
	if inverse {
		kernels.ScaleCplx(s.pre, s.pim, 1/float64(p.n))
	}
	kernels.Interleave(x, s.pre, s.pim)
	p.scratch.Put(s)
}

// stagesInPlace runs every butterfly stage over bit-reversed planar data
// whose elements outside the aligned block [lo, lo+m) are all +0; m is a
// power of two, and m = n (lo = 0) is a dense frame. A stage whose
// butterfly blocks (2*half elements) fit in m runs on that block alone:
// every butterfly outside it combines two +0 inputs, whose twiddle product
// is ±0 for any finite twiddle, and so writes +0 back — skipping them
// changes no bit.
//
//lint:hotpath
func (p *FFTPlan) stagesInPlace(re, im []float64, inverse bool, lo, m int) {
	wi := p.fwdWi
	if inverse {
		wi = p.invWi
	}
	for st := 0; st < p.stages; st++ {
		half := 1 << st
		r, i := re, im
		if 2*half <= m {
			r, i = re[lo:lo+m], im[lo:lo+m]
		}
		kernels.FFTStage(r, i, p.stageWr[st], wi[st], half)
	}
}

// ForwardMany computes the in-place forward DFT of every frame, four at a
// time through the lane-interleaved planar pipeline (each vector carries the
// same butterfly of four independent transforms, so every stage vectorizes —
// including the half < 4 stages the single-frame path runs scalar). Each
// frame must have the plan's length. Bit-identical, frame for frame, to
// calling Forward on each.
//
//lint:hotpath
func (p *FFTPlan) ForwardMany(xs [][]complex128) {
	p.transformMany(xs, false)
}

// InverseMany computes the in-place normalized inverse DFT of every frame,
// four at a time. Bit-identical, frame for frame, to calling Inverse on each.
//
//lint:hotpath
func (p *FFTPlan) InverseMany(xs [][]complex128) {
	p.transformMany(xs, true)
}

//lint:hotpath
func (p *FFTPlan) transformMany(xs [][]complex128, inverse bool) {
	g := 0
	if len(xs) >= 4 {
		s := p.scratch.Get().(*fftScratch)
		if s.qre == nil {
			//lint:ignore escape once per pooled scratch: only batched transforms need the quad planes
			s.qre, s.qim = make([]float64, 4*p.n), make([]float64, 4*p.n)
		}
		wi := p.fwdWi
		if inverse {
			wi = p.invWi
		}
		for ; g+4 <= len(xs); g += 4 {
			quad := xs[g : g+4]
			for _, x := range quad {
				if len(x) != p.n {
					//lint:ignore escape panic path only: the formatted lengths box
					panic(fmt.Sprintf("dsp: FFT input length %d does not match plan size %d", len(x), p.n))
				}
			}
			kernels.FFTPackX4(s.qre, s.qim, quad, p.rev64)
			for st := 0; st < p.stages; st++ {
				kernels.FFTStageX4(s.qre, s.qim, p.stageWr[st], wi[st], 1<<st)
			}
			if inverse {
				// Elementwise planar scale: layout-agnostic, so it applies to
				// the lane-interleaved planes exactly as to single frames.
				kernels.ScaleCplx(s.qre, s.qim, 1/float64(p.n))
			}
			kernels.FFTUnpackX4(quad, s.qre, s.qim)
		}
		p.scratch.Put(s)
	}
	for ; g < len(xs); g++ {
		p.transform(xs[g], inverse)
	}
}

// planCache holds one immutable FFTPlan per transform size. Plans are safe
// for concurrent use once built, so a lost race at worst builds a duplicate
// that the map discards.
var planCache sync.Map // int -> *FFTPlan

// PlanFor returns the shared plan for an n-point transform, building and
// caching it on first use. n must be a power of two. The returned plan is
// safe for concurrent use and must not be modified.
func PlanFor(n int) (*FFTPlan, error) {
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan), nil
}

// FFT returns the forward DFT of x in a new slice. len(x) must be a power of
// two.
func FFT(x []complex128) []complex128 {
	p, err := PlanFor(len(x))
	if err != nil {
		panic(err)
	}
	out := make([]complex128, len(x))
	copy(out, x)
	p.Forward(out)
	return out
}

// IFFT returns the normalized inverse DFT of x in a new slice. len(x) must be
// a power of two.
func IFFT(x []complex128) []complex128 {
	p, err := PlanFor(len(x))
	if err != nil {
		panic(err)
	}
	out := make([]complex128, len(x))
	copy(out, x)
	p.Inverse(out)
	return out
}
