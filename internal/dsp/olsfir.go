package dsp

// Overlap-save block convolution shared by FIR and ComplexFIR. For long tap
// sets the O(taps) per-sample direct form loses to FFT convolution: the
// filter spectrum is computed once, and each block of L = N-(taps-1) output
// samples costs one forward and one inverse N-point transform. The engine
// consumes the same extended frame (history prefix + new samples) the direct
// block path uses, so switching paths never changes the streaming state.

import "wlansim/internal/kernels"

const (
	// olsMinTaps is the tap count above which Process switches from the
	// direct block convolution to FFT overlap-save, provided the frame is
	// long enough (olsMinFrameFactor × taps) to amortize the transforms.
	olsMinTaps        = 48
	olsMinFrameFactor = 2
)

// olsUsable reports whether overlap-save pays off for a filter with the
// given tap count on a frame of m samples. The decision depends only on
// (taps, m), so a fixed call sequence always takes the same path.
func olsUsable(taps, m int) bool {
	return taps >= olsMinTaps && m >= olsMinFrameFactor*taps
}

// olsSpectrum is the immutable half of an overlap-save engine: the block
// geometry, the shared FFT plan and the filter spectrum. It is safe for
// concurrent use, so one resampler design's spectrum serves every
// resampler built on it.
type olsSpectrum struct {
	taps int
	n    int // FFT size
	l    int // new output samples per block: n - (taps-1)
	plan *FFTPlan
	hre  []float64 // forward transform of the zero-padded taps, deinterleaved:
	him  []float64 // the spectral product operands for MulCplx
}

// olsConv is one filter's overlap-save engine: a spectrum plus the block
// scratch of its stream.
type olsConv struct {
	*olsSpectrum
	seg  []complex128 // block scratch, reused across calls
	grev []int64      // bit reversal of the last grid size block used
}

// newOLSSpectrum transforms the given taps on the shared plan of the
// engine's FFT size: the smallest power of two ≥ 4×taps (and ≥ 128),
// keeping ≥ 3/4 of each transform as fresh output.
func newOLSSpectrum(taps []complex128) *olsSpectrum {
	t := len(taps)
	n := olsSize(t)
	plan, err := PlanFor(n)
	if err != nil {
		panic(err) // unreachable: n is a power of two by construction
	}
	h := make([]complex128, n)
	copy(h, taps)
	plan.Forward(h)
	hre := make([]float64, n)
	him := make([]float64, n)
	kernels.Deinterleave(hre, him, h)
	return &olsSpectrum{taps: t, n: n, l: n - (t - 1), plan: plan, hre: hre, him: him}
}

func newOLSSpectrumReal(taps []float64) *olsSpectrum {
	c := make([]complex128, len(taps))
	for i, t := range taps {
		c[i] = complex(t, 0)
	}
	return newOLSSpectrum(c)
}

// newOLSConv builds an engine streaming on the given spectrum.
func newOLSConv(s *olsSpectrum) *olsConv {
	return &olsConv{olsSpectrum: s, seg: make([]complex128, s.n)}
}

// olsSize is the FFT size of the engine for t taps.
func olsSize(t int) int {
	n := 128
	for n < 4*t {
		n <<= 1
	}
	return n
}

// process computes dst[i] = Σ_j taps[j]·ext[taps-1+i-j] for i in [0,
// len(dst)), where ext is the history prefix of taps-1 samples followed by
// the len(dst) input samples. dst must not alias ext.
//
//lint:hotpath
func (c *olsConv) process(dst, ext []complex128) {
	p := c.taps - 1
	for start := 0; start < len(dst); start += c.l {
		cnt := len(dst) - start
		if cnt > c.l {
			cnt = c.l
		}
		// The block producing outputs [start, start+cnt) reads
		// ext[start : start+n], zero-padded past the end of the frame.
		avail := len(ext) - start
		if avail > c.n {
			avail = c.n
		}
		copied := copy(c.seg, ext[start:start+avail])
		for i := copied; i < c.n; i++ {
			c.seg[i] = 0
		}
		c.block(1, 0)
		copy(dst[start:start+cnt], c.seg[p:p+cnt])
	}
}

// block convolves one overlap-save segment in place. On entry the segment
// is given by its grid: stride is a power of two dividing n, c.seg[i]
// holds segment sample phase + stride*i for i < n/stride, and every other
// segment sample is +0. Stride 1 (phase 0) is a dense segment, all n
// samples in c.seg. On return c.seg[taps-1:] holds the block's exact
// linear-convolution outputs (the first taps-1 samples are circular-wrap
// garbage).
//
// The round trip is planar: forward stages, spectral product against the
// deinterleaved filter planes, inverse stages — staying split-complex
// between the two transforms skips the interleave/deinterleave round trips
// that Forward + seg[i] *= h[i] + Inverse would perform. The arithmetic per
// element is identical (MulCplx and ScaleCplx are the compiler's complex128
// lowering), so the output is bit-identical to the interleaved sequence.
//
// The bit reversal of the full segment sends the m = n/stride grid samples
// to one aligned block of the forward planes, the block starting at the
// reversed index of phase, in the order of the m-point bit reversal; the
// rest of the planes is +0. The gather fills that block from the grid
// samples alone and the forward transform's first log2(m) stages run on it
// alone (see stagesInPlace), so the spectrum is bit-identical to the dense
// segment's, NaN and ±Inf grid samples included.
//
//lint:hotpath
func (c *olsConv) block(stride, phase int) {
	s := c.plan.scratch.Get().(*fftScratch)
	m := c.n / stride
	rev := c.plan.rev64
	if m < c.n {
		rev = c.gridRev(m)
		clear(s.pre)
		clear(s.pim)
	}
	lo := int(c.plan.rev64[phase])
	kernels.Deinterleave(s.sre[:m], s.sim[:m], c.seg[:m])
	kernels.FFTPermute(s.pre[lo:lo+m], s.sre, rev)
	kernels.FFTPermute(s.pim[lo:lo+m], s.sim, rev)
	c.plan.stagesInPlace(s.pre, s.pim, false, lo, m)
	kernels.MulCplx(s.pre, s.pim, c.hre, c.him)
	kernels.FFTPermute(s.sre, s.pre, c.plan.rev64)
	kernels.FFTPermute(s.sim, s.pim, c.plan.rev64)
	c.plan.stagesInPlace(s.sre, s.sim, true, 0, c.n)
	kernels.ScaleCplx(s.sre, s.sim, 1/float64(c.n))
	kernels.Interleave(c.seg, s.sre, s.sim)
	c.plan.scratch.Put(s)
}

// gridRev returns the m-point bit-reversal table, taken once from the
// shared plan of that size.
func (c *olsConv) gridRev(m int) []int64 {
	if len(c.grev) != m {
		p, err := PlanFor(m)
		if err != nil {
			panic(err) // unreachable: m divides the power-of-two n
		}
		c.grev = p.rev64
	}
	return c.grev
}
