package dsp

import (
	"fmt"
	"math"

	"wlansim/internal/kernels"
)

// FIR is a finite-impulse-response filter with real coefficients and
// streaming complex state. The zero value is not usable; construct with
// NewFIR or one of the design helpers.
//
// Process filters whole frames by linear block convolution over a carried
// history prefix (the last len(taps)-1 inputs), switching to an FFT
// overlap-save engine for long tap sets. It produces the same stream a
// per-sample direct filter would (the FFT path up to transform round-off);
// the tests keep that per-sample form as FIR.ProcessSample. A FIR must not
// be shared between goroutines.
type FIR struct {
	taps []float64
	hist []complex128 // last len(taps)-1 inputs, oldest first
	ext  []complex128 // frame scratch: history prefix + inputs
	ols  *olsConv     // lazily built FFT path for long tap sets

	// extV/outV are the planar views the direct path hands to the kernels
	// layer; conversion happens once per frame at these boundaries.
	extV, outV kernels.Vec
}

// NewFIR builds a streaming filter from the given tap coefficients
// (taps[0] multiplies the newest sample).
func NewFIR(taps []float64) *FIR {
	if len(taps) == 0 {
		panic("dsp: FIR requires at least one tap")
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t, hist: make([]complex128, len(taps)-1)}
}

// Reset clears the filter state.
func (f *FIR) Reset() {
	for i := range f.hist {
		f.hist[i] = 0
	}
}

// Process filters a frame in place and returns it. Steady-state frames of a
// recurring size allocate nothing.
//
//lint:hotpath
func (f *FIR) Process(x []complex128) []complex128 {
	if len(x) == 0 {
		return x
	}
	p := len(f.hist)
	if p == 0 {
		t0 := complex(f.taps[0], 0)
		for i, v := range x {
			x[i] = v * t0
		}
		return x
	}
	need := p + len(x)
	if cap(f.ext) < need {
		//lint:ignore escape one-time scratch grow, amortized across frames
		f.ext = make([]complex128, need)
	}
	ext := f.ext[:need]
	copy(ext, f.hist)
	copy(ext[p:], x)
	if olsUsable(len(f.taps), len(x)) {
		if f.ols == nil {
			//lint:ignore escape one-time engine build on the first long frame
			f.ols = newOLSConv(newOLSSpectrumReal(f.taps))
		}
		f.ols.process(x, ext)
	} else {
		// Planar direct path: one transpose per frame, then the unrolled
		// split-complex kernel. Per output the kernel accumulates newest to
		// oldest (taps[0] first) like the per-sample form, bit-identically.
		f.extV.From(ext)
		//lint:ignore escape inlined Vec grow: first-use plane allocation, reused afterwards
		f.outV.Grow(len(x))
		kernels.FIRReal(f.outV.Re, f.outV.Im, f.extV.Re, f.extV.Im, f.taps)
		f.outV.CopyTo(x)
	}
	copy(f.hist, ext[len(ext)-p:])
	return x
}

// DesignLowpassFIR designs a linear-phase lowpass filter with the
// windowed-sinc method. cutoff is the -6 dB edge as a fraction of the sample
// rate (0 < cutoff < 0.5); taps is the filter length.
func DesignLowpassFIR(taps int, cutoff float64, w Window) (*FIR, error) {
	if taps < 1 {
		return nil, fmt.Errorf("dsp: FIR length %d < 1", taps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: FIR cutoff %g outside (0, 0.5)", cutoff)
	}
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	win := w.Coefficients(taps)
	for n := range h {
		t := float64(n) - mid
		var s float64
		if t == 0 {
			s = 2 * cutoff
		} else {
			s = math.Sin(2*math.Pi*cutoff*t) / (math.Pi * t)
		}
		h[n] = s * win[n]
	}
	// Normalize for unit DC gain.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum != 0 {
		for n := range h {
			h[n] /= sum
		}
	}
	return NewFIR(h), nil
}
