package dsp

import "wlansim/internal/kernels"

// IIRBatch drives one IIR cascade over B lanes in lock-step. The scalar
// cascade's biquad recurrence is latency-bound — each sample's update waits
// on the previous sample's — so interleaving B independent lanes through
// kernels.BiquadBatch fills the pipeline the scalar section leaves idle.
//
// The batch object owns its per-section, per-lane delay states, separate
// from the scalar cascade's (the design object is shared read-only): lane b
// of ProcessPlanar is bit-identical to running f.Process on that lane alone
// from the same (zero or carried) state — the gain pass and every section
// apply the same per-lane operation sequence, and lanes never mix.
type IIRBatch struct {
	f *IIR
	// s1r[sec][lane] etc. hold lane states per section.
	s1r, s1i, s2r, s2i [][]float64
}

// NewIIRBatch builds the batch driver for the cascade f. The section
// coefficients are read from f on every call, so retuning f retunes the
// batch; the delay states live here and start zero.
func NewIIRBatch(f *IIR) *IIRBatch {
	return &IIRBatch{f: f}
}

// Reset zeroes every lane's delay states, the batch analogue of IIR.Reset.
func (b *IIRBatch) Reset() {
	for s := range b.s1r {
		for l := range b.s1r[s] {
			b.s1r[s][l] = 0
			b.s1i[s][l] = 0
			b.s2r[s][l] = 0
			b.s2i[s][l] = 0
		}
	}
}

// grow sizes the per-section state arrays for B lanes, preserving existing
// lane states.
func (b *IIRBatch) grow(lanes int) {
	secs := len(b.f.Sections)
	grown := func(old [][]float64) [][]float64 {
		out := make([][]float64, secs)
		for s := range out {
			out[s] = make([]float64, lanes)
			if s < len(old) {
				copy(out[s], old[s])
			}
		}
		return out
	}
	b.s1r = grown(b.s1r)
	b.s1i = grown(b.s1i)
	b.s2r = grown(b.s2r)
	b.s2i = grown(b.s2i)
}

// ProcessPlanar filters B equal-length planar lanes in place through the
// cascade, lock-step per section: lane l is re[l] and im[l]. The gain pass
// runs in place over the planes — the same per-component multiply IIR.Process
// applies — so lane l is bit-identical to f.Process on that lane from the
// same delay state.
func (b *IIRBatch) ProcessPlanar(re, im [][]float64) {
	if len(re) == 0 || len(re[0]) == 0 {
		return
	}
	L := len(re)
	if len(b.s1r) < len(b.f.Sections) || (len(b.f.Sections) > 0 && len(b.s1r[0]) < L) {
		b.grow(L)
	}

	g := b.f.Gain
	if g == 0 {
		g = 1
	}
	// Multiplying by exactly 1.0 is skipped as in IIR.Process (a bit-exact
	// identity).
	//lint:ignore floateq multiplying by exactly 1.0 is a bit-exact identity, so the gain pass can be skipped
	if g != 1 {
		for l := 0; l < L; l++ {
			rl, il := re[l], im[l]
			for i := range rl {
				rl[i] = g * rl[i]
				il[i] = g * il[i]
			}
		}
	}

	for s := range b.f.Sections {
		q := &b.f.Sections[s]
		kernels.BiquadBatch(re, im, q.B0, q.B1, q.B2, q.A1, q.A2,
			b.s1r[s][:L], b.s1i[s][:L], b.s2r[s][:L], b.s2i[s][:L])
	}
}
