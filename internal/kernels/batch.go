package kernels

import "math"

// The batch kernels push B independent lanes — packets, or equal-config
// sweep points — through one kernel invocation in lock-step. The contract is
// the same bit-exactness bar as the scalar kernels, stated lane-wise: lane b
// of every batch kernel produces exactly the bits the corresponding scalar
// kernel produces on lane b alone, for every B including 1 and for ragged
// final batches (a ragged tail is just a smaller B). No operation ever mixes
// values across lanes, so the proof obligation per lane reduces to "same
// per-lane operation sequence as the scalar kernel", which the differential
// batch test suite pins on adversarial (NaN/±Inf) inputs as well.
//
// There are two, and both do lock-step work a loop of scalar calls cannot.
// ACSRunBatch runs one trellis-step loop updating B metric planes, keeping
// the branch-sign tables and decision machinery hot across lanes.
// BiquadBatch lane-interleaves a latency-bound IIR recurrence: the scalar
// biquad's ~3-add critical path per sample leaves the pipeline mostly idle,
// and B independent recurrences fill it (measured ~2x at B=8). Lane work
// that shares only its inputs — one LO trajectory mixed into every lane —
// is a loop of scalar kernel calls in the caller.

// ACSRunBatch advances B independent trellises len(decisions[b]) steps in
// lock-step: one step loop updates all B metric planes before moving to step
// t+1. Lane b consumes soft[b][2t], soft[b][2t+1] at step t and stores its
// survivor bits in decisions[b][t]. All lanes must have the same step count.
// metric[b]/scratch[b] are lane b's ping-pong banks and clean is a
// caller-owned scratch of len B (contents ignored on entry); after the run,
// lane b's final metrics are in metric[b] when the step count is even and in
// scratch[b] when odd. A one-lane call is the decoder's scalar trellis.
//
// Each lane is bit-identical to calling ACSStepRef step by step on that lane
// alone. Steps run in the unrolled branchless kernel as long as no NaN
// candidate can arise — the common case for every real decode. A non-finite
// branch metric routes that lane's step (and, since it may poison the bank
// with +Inf or NaN, every later step of the lane) through ACSStepRef, whose
// NaN guards are exact; steps of other lanes touch disjoint banks. metric[b]
// must not contain NaN or +Inf on entry; the decoder's 0/-Inf
// initialization satisfies this.
//
//lint:hotpath
func ACSRunBatch(decisions [][]uint64, soft [][]float64, metric, scratch []*[64]float64, clean []bool) {
	if len(decisions) == 0 {
		return
	}
	steps := len(decisions[0])
	for b := range clean {
		clean[b] = true
	}
	for t := 0; t < steps; t++ {
		for b := range decisions {
			cur, next := metric[b], scratch[b]
			if t&1 == 1 {
				cur, next = next, cur
			}
			mA, mB := soft[b][2*t], soft[b][2*t+1]
			if clean[b] && !math.IsNaN(mA) && !math.IsInf(mA, 0) && !math.IsNaN(mB) && !math.IsInf(mB, 0) {
				decisions[b][t] = acsStep(next, cur, mA, mB)
			} else {
				clean[b] = false
				decisions[b][t] = ACSStepRef(next, cur, mA, mB)
			}
		}
	}
}

// BiquadBatch advances one direct-form-II-transposed biquad section per
// lane over B planar lanes in lock-step, sample-major: the B recurrences are
// independent, so interleaving them fills the pipeline stalls of the scalar
// section's latency-bound update chain. Lane b runs the section whose
// coefficients are b0[b], b1[b], b2[b], a1[b] and a2[b] (lanes may share a
// design or each have their own); s1r/s1i/s2r/s2i hold lane b's two delay
// states at index b and are updated in place. Lane b is bit-identical to
// BiquadBatchRef on that lane alone: the per-sample update is the same five
// multiplies and four adds in the same order, and lanes never mix.
//
//lint:hotpath
func BiquadBatch(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	if useSIMD {
		biquadBatchSIMD(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
		return
	}
	biquadBatchGo(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
}

// biquadBatchGo is the pure-Go tier of BiquadBatch: lane pairs with the four
// recurrences in registers, single-lane remainder.
//
//lint:hotpath
func biquadBatchGo(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	b := 0
	for ; b+2 <= len(re); b += 2 {
		biquadPair(re[b:], im[b:], b0[b:], b1[b:], b2[b:], a1[b:], a2[b:], s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	}
	if b < len(re) {
		biquadLane(re[b], im[b], b0[b], b1[b], b2[b], a1[b], a2[b], s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	}
}

// biquadQuadGo advances four lanes as two register-resident pairs. It is the
// pure-Go twin of biquadQuadAsm, which runs the same four recurrences one
// lane per ymm vector lane with the per-lane update order unchanged; both
// advance lane b exactly as biquadLane would.
//
//lint:hotpath
func biquadQuadGo(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	biquadPair(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
	biquadPair(re[2:], im[2:], b0[2:], b1[2:], b2[2:], a1[2:], a2[2:], s1r[2:], s1i[2:], s2r[2:], s2i[2:])
}

// biquadPair advances lanes 0 and 1 (four independent recurrences) with all
// four delay-state pairs held in registers across the sample loop. Each
// lane's per-sample update is the exact scalar sequence with its own
// coefficients; the two lanes never mix.
//
//lint:hotpath
func biquadPair(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	pb0, pb1, pb2, pa1, pa2 := b0[0], b1[0], b2[0], a1[0], a2[0]
	qb0, qb1, qb2, qa1, qa2 := b0[1], b1[1], b2[1], a1[1], a2[1]
	p1r, p1i, p2r, p2i := s1r[0], s1i[0], s2r[0], s2i[0]
	q1r, q1i, q2r, q2i := s1r[1], s1i[1], s2r[1], s2i[1]
	r0 := re[0]
	i0, r1, i1 := im[0][:len(r0)], re[1][:len(r0)], im[1][:len(r0)]
	for k := range r0 {
		xr0, xi0 := r0[k], i0[k]
		xr1, xi1 := r1[k], i1[k]
		yr0 := pb0*xr0 + p1r
		yi0 := pb0*xi0 + p1i
		yr1 := qb0*xr1 + q1r
		yi1 := qb0*xi1 + q1i
		p1r = pb1*xr0 - pa1*yr0 + p2r
		p1i = pb1*xi0 - pa1*yi0 + p2i
		q1r = qb1*xr1 - qa1*yr1 + q2r
		q1i = qb1*xi1 - qa1*yi1 + q2i
		p2r = pb2*xr0 - pa2*yr0
		p2i = pb2*xi0 - pa2*yi0
		q2r = qb2*xr1 - qa2*yr1
		q2i = qb2*xi1 - qa2*yi1
		r0[k] = yr0
		i0[k] = yi0
		r1[k] = yr1
		i1[k] = yi1
	}
	s1r[0], s1i[0], s2r[0], s2i[0] = p1r, p1i, p2r, p2i
	s1r[1], s1i[1], s2r[1], s2i[1] = q1r, q1i, q2r, q2i
}

// biquadLane advances the single remaining lane with its states in
// registers — the scalar recurrence, bit-identical per sample to the pair
// kernel's per-lane update.
//
//lint:hotpath
func biquadLane(r0, i0 []float64, b0, b1, b2, a1, a2 float64, s1r, s1i, s2r, s2i []float64) {
	p1r, p1i, p2r, p2i := s1r[0], s1i[0], s2r[0], s2i[0]
	i0 = i0[:len(r0)]
	for k := range r0 {
		xr0, xi0 := r0[k], i0[k]
		yr0 := b0*xr0 + p1r
		yi0 := b0*xi0 + p1i
		p1r = b1*xr0 - a1*yr0 + p2r
		p1i = b1*xi0 - a1*yi0 + p2i
		p2r = b2*xr0 - a2*yr0
		p2i = b2*xi0 - a2*yi0
		r0[k] = yr0
		i0[k] = yi0
	}
	s1r[0], s1i[0], s2r[0], s2i[0] = p1r, p1i, p2r, p2i
}
