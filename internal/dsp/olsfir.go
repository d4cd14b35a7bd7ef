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

type olsConv struct {
	taps int
	n    int // FFT size
	l    int // new output samples per block: n - (taps-1)
	plan *FFTPlan
	h    []complex128 // forward transform of the zero-padded taps
	hre  []float64    // h deinterleaved: spectral product operands for MulCplx
	him  []float64
	seg  []complex128 // block scratch, reused across calls
}

// newOLSConv builds the overlap-save engine for the given taps. The FFT size
// is the smallest power of two ≥ 4×taps (and ≥ 128), keeping ≥ 3/4 of each
// transform as fresh output.
func newOLSConv(taps []complex128) *olsConv {
	t := len(taps)
	n := olsSize(t)
	plan, err := NewFFTPlan(n)
	if err != nil {
		panic(err) // unreachable: n is a power of two by construction
	}
	h := make([]complex128, n)
	copy(h, taps)
	plan.Forward(h)
	hre := make([]float64, n)
	him := make([]float64, n)
	kernels.Deinterleave(hre, him, h)
	return &olsConv{taps: t, n: n, l: n - (t - 1), plan: plan, h: h, hre: hre, him: him, seg: make([]complex128, n)}
}

// olsSize is the FFT size of the engine for t taps.
func olsSize(t int) int {
	n := 128
	for n < 4*t {
		n <<= 1
	}
	return n
}

func newOLSConvReal(taps []float64) *olsConv {
	c := make([]complex128, len(taps))
	for i, t := range taps {
		c[i] = complex(t, 0)
	}
	return newOLSConv(c)
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
		c.block()
		copy(dst[start:start+cnt], c.seg[p:p+cnt])
	}
}

// block convolves one overlap-save segment in place: on entry c.seg holds
// the n extended-frame samples the block reads, on return c.seg[taps-1:]
// holds its exact linear-convolution outputs (the first taps-1 samples are
// circular-wrap garbage).
//
// The round trip is planar: forward stages, spectral product against the
// deinterleaved filter planes, inverse stages — staying split-complex
// between the two transforms skips the interleave/deinterleave round trips
// that Forward + seg[i] *= h[i] + Inverse would perform. The arithmetic per
// element is identical (MulCplx and ScaleCplx are the compiler's complex128
// lowering), so the output is bit-identical to the interleaved sequence.
//
//lint:hotpath
func (c *olsConv) block() {
	s := c.plan.scratch.Get().(*fftScratch)
	kernels.Deinterleave(s.sre, s.sim, c.seg)
	kernels.FFTPermute(s.pre, s.sre, c.plan.rev64)
	kernels.FFTPermute(s.pim, s.sim, c.plan.rev64)
	c.plan.stagesInPlace(s.pre, s.pim, false)
	kernels.MulCplx(s.pre, s.pim, c.hre, c.him)
	kernels.FFTPermute(s.sre, s.pre, c.plan.rev64)
	kernels.FFTPermute(s.sim, s.pim, c.plan.rev64)
	c.plan.stagesInPlace(s.sre, s.sim, true)
	kernels.ScaleCplx(s.sre, s.sim, 1/float64(c.n))
	kernels.Interleave(c.seg, s.sre, s.sim)
	c.plan.scratch.Put(s)
}
