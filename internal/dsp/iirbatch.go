package dsp

import "wlansim/internal/kernels"

// IIRBatch drives the IIR cascades of B lanes in lock-step, each lane with
// a design of its own or a shared one. The scalar cascade's biquad
// recurrence is latency-bound — each sample's update waits on the previous
// sample's — so interleaving B independent lanes through kernels.BiquadBatch
// (per-lane coefficient vectors) fills the pipeline the scalar section
// leaves idle.
//
// The batch object owns every lane's delay states, separate from the
// scalar cascades' (the designs are shared read-only and their coefficients
// read on every call, so retuning a design's sections retunes its lanes):
// lane l is bit-identical to running its design's Process on that lane
// alone from the same (zero or carried) state — the gain pass and every
// section apply the same per-lane operation sequence, and lanes never mix.
// Lanes whose designs have different section counts run in separate kernel
// calls.
type IIRBatch struct {
	def   *IIR // design of lanes not given one of their own
	lanes []iirLane

	pos []int // 0, 1, ...: the lane indices of ProcessPlanar

	// Per-call scratch: the lanes of one section count and their section
	// coefficients and delay states, gathered lane-contiguous.
	gre, gim [][]float64
	gid      []int
	c        [9][]float64 // b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i
}

// iirLane is one lane's design and delay states.
type iirLane struct {
	f  *IIR      // nil: no filter
	st []float64 // s1r, s1i, s2r, s2i per section
}

// NewIIRBatch builds the batch driver whose lanes all run the cascade f
// (nil: no filter) until SetLane gives one its own; the delay states start
// zero.
func NewIIRBatch(f *IIR) *IIRBatch {
	return &IIRBatch{def: f}
}

// SetLane gives lane l the cascade f (nil: no filter) and zeroes its
// states.
func (b *IIRBatch) SetLane(l int, f *IIR) {
	ln := b.lane(l)
	ln.f = f
	ln.st = make([]float64, 4*sections(f))
}

// lane returns lane l, adding the lanes up to l with the batch's design.
func (b *IIRBatch) lane(l int) *iirLane {
	for len(b.lanes) <= l {
		b.lanes = append(b.lanes, iirLane{f: b.def, st: make([]float64, 4*sections(b.def))})
	}
	return &b.lanes[l]
}

func sections(f *IIR) int {
	if f == nil {
		return 0
	}
	return len(f.Sections)
}

// Reset zeroes every lane's delay states, the batch analogue of IIR.Reset.
func (b *IIRBatch) Reset() {
	for l := range b.lanes {
		clear(b.lanes[l].st)
	}
}

// ResetLane zeroes lane l's delay states.
func (b *IIRBatch) ResetLane(l int) { clear(b.lane(l).st) }

// ProcessPlanar filters B equal-length planar lanes in place, lane l on
// re[l] and im[l]: ProcessLanes with lane k on plane k.
func (b *IIRBatch) ProcessPlanar(re, im [][]float64) {
	for len(b.pos) < len(re) {
		b.pos = append(b.pos, len(b.pos))
	}
	b.ProcessLanes(re, im, b.pos[:len(re)])
}

// ProcessLanes filters equal-length planar lanes in place through their
// cascades, lane ids[k] on re[k] and im[k], continuing each lane's delay
// states; lanes with equal section counts run lock-step per section. The
// gain pass runs in place over the planes — the same per-component
// multiply IIR.Process applies — so lane ids[k] is bit-identical to its
// design's Process on that lane from the same delay state.
func (b *IIRBatch) ProcessLanes(re, im [][]float64, ids []int) {
	if len(ids) == 0 || len(re[0]) == 0 {
		return
	}
	for k, id := range ids {
		f := b.lane(id).f
		if f == nil {
			continue
		}
		g := f.Gain
		if g == 0 {
			g = 1
		}
		// Multiplying by exactly 1.0 is skipped as in IIR.Process (a
		// bit-exact identity); otherwise each component takes the one
		// multiply IIR.Process applies, through the plane kernel.
		//lint:ignore floateq multiplying by exactly 1.0 is a bit-exact identity, so the gain pass can be skipped
		if g != 1 {
			kernels.ScalePlane(re[k], g)
			kernels.ScalePlane(im[k][:len(re[k])], g)
		}
	}
	for k, id := range ids {
		secs := sections(b.lanes[id].f)
		if secs == 0 || b.counted(ids[:k], secs) {
			continue
		}
		b.gre, b.gim, b.gid = b.gre[:0], b.gim[:0], b.gid[:0]
		for j := k; j < len(ids); j++ {
			if sections(b.lanes[ids[j]].f) == secs {
				b.gre = append(b.gre, re[j])
				b.gim = append(b.gim, im[j])
				b.gid = append(b.gid, ids[j])
			}
		}
		b.run(secs)
	}
}

// counted reports whether one of the lanes ids has secs sections, so its
// group already ran.
func (b *IIRBatch) counted(ids []int, secs int) bool {
	for _, id := range ids {
		if sections(b.lanes[id].f) == secs {
			return true
		}
	}
	return false
}

// run advances the gathered lanes (gre, gim, gid) through their secs
// sections, section-major as IIR.Process.
func (b *IIRBatch) run(secs int) {
	L := len(b.gid)
	c := &b.c
	if len(c[0]) < L {
		for k := range c {
			c[k] = make([]float64, L)
		}
	}
	for s := 0; s < secs; s++ {
		for j, id := range b.gid {
			ln := &b.lanes[id]
			q := &ln.f.Sections[s]
			st := ln.st[4*s : 4*s+4]
			c[0][j], c[1][j], c[2][j], c[3][j], c[4][j] = q.B0, q.B1, q.B2, q.A1, q.A2
			c[5][j], c[6][j], c[7][j], c[8][j] = st[0], st[1], st[2], st[3]
		}
		kernels.BiquadBatch(b.gre, b.gim, c[0][:L], c[1][:L], c[2][:L], c[3][:L], c[4][:L],
			c[5][:L], c[6][:L], c[7][:L], c[8][:L])
		for j, id := range b.gid {
			st := b.lanes[id].st[4*s : 4*s+4]
			st[0], st[1], st[2], st[3] = c[5][j], c[6][j], c[7][j], c[8][j]
		}
	}
}
