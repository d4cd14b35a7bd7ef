package dsp

import (
	"fmt"

	"wlansim/internal/kernels"
)

// ComplexFIR is a finite-impulse-response filter with complex coefficients
// and streaming state — needed to realize asymmetric (non-conjugate-
// symmetric) frequency responses such as an extracted receiver black-box.
//
// Like FIR, Process runs linear block convolution over a carried history
// prefix and switches to FFT overlap-save for long tap sets; see the FIR
// docs for the streaming/equivalence contract.
type ComplexFIR struct {
	taps []complex128
	hist []complex128 // last len(taps)-1 inputs, oldest first
	ext  []complex128 // frame scratch: history prefix + inputs
	ols  *olsConv     // lazily built FFT path for long tap sets

	tapsV      kernels.Vec // planar taps, split once at construction
	extV, outV kernels.Vec // planar frame views for the direct path
}

// NewComplexFIR builds a streaming filter from complex taps.
func NewComplexFIR(taps []complex128) (*ComplexFIR, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: complex FIR requires at least one tap")
	}
	t := make([]complex128, len(taps))
	copy(t, taps)
	f := &ComplexFIR{taps: t, hist: make([]complex128, len(taps)-1)}
	f.tapsV.From(t)
	return f, nil
}

// Reset clears the filter state.
func (f *ComplexFIR) Reset() {
	for i := range f.hist {
		f.hist[i] = 0
	}
}

// Process filters a frame in place and returns it. Steady-state frames of a
// recurring size allocate nothing.
func (f *ComplexFIR) Process(x []complex128) []complex128 {
	if len(x) == 0 {
		return x
	}
	p := len(f.hist)
	if p == 0 {
		t0 := f.taps[0]
		for i, v := range x {
			x[i] = v * t0
		}
		return x
	}
	need := p + len(x)
	if cap(f.ext) < need {
		f.ext = make([]complex128, need)
	}
	ext := f.ext[:need]
	copy(ext, f.hist)
	copy(ext[p:], x)
	if olsUsable(len(f.taps), len(x)) {
		if f.ols == nil {
			f.ols = newOLSConv(f.taps)
		}
		f.ols.process(x, ext)
	} else {
		// Planar direct path: one transpose per frame, then the unrolled
		// split-complex kernel. Per output the kernel accumulates newest to
		// oldest (taps[0] first) with each product lowered exactly like
		// Go's complex128 multiply, so outputs match the per-sample form
		// bit for bit.
		f.extV.From(ext)
		f.outV.Grow(len(x))
		kernels.FIRCplx(f.outV.Re, f.outV.Im, f.extV.Re, f.extV.Im, f.tapsV.Re, f.tapsV.Im)
		f.outV.CopyTo(x)
	}
	copy(f.hist, ext[len(ext)-p:])
	return x
}

// FIRFromFrequencyResponse designs complex FIR taps whose response matches
// the given samples h[k] at the uniform normalized frequency grid
// nu_k = k/len(h) (FFT bin order, k = 0..N-1), via the inverse DFT. len(h)
// must be a power of two. The response between grid points interpolates
// smoothly when the underlying system's impulse response is shorter than
// the grid.
func FIRFromFrequencyResponse(h []complex128) (*ComplexFIR, error) {
	if len(h) < 2 || len(h)&(len(h)-1) != 0 {
		return nil, fmt.Errorf("dsp: frequency grid length %d not a power of two", len(h))
	}
	taps := IFFT(h)
	return NewComplexFIR(taps)
}
