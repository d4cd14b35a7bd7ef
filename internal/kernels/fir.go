package kernels

// The FIR kernels compute block linear convolution over an extended input:
// the caller lays out xr/xi as a history prefix of len(taps)-1 samples
// followed by the frame, and output i is the dot product of the taps with the
// window ending at extended sample i+len(taps)-1, newest sample first
// (taps[0] multiplies the newest) — the same schedule as a per-sample direct
// filter.
//
// The optimized kernels unroll across four *outputs* per iteration: each tap
// is loaded once and feeds eight independent accumulator chains (four real,
// four imaginary). Every output's own accumulation order is untouched — tap
// index ascending, one rounding per multiply and per add — so each output is
// bit-identical to the reference's, not merely close. The AVX2 tier maps the
// same four output chains onto the four lanes of one ymm vector (see
// simd_amd64.s); per-output arithmetic is unchanged, so it is bit-identical
// too.

// FIRReal filters the planar extended input xr/xi (history prefix of
// len(taps)-1 samples, then the frame) with real taps, writing len(yr)
// outputs. yr/yi must not alias the tail of xr/xi that the remaining windows
// still read. Bit-identical to FIRRealRef on either dispatch tier.
//
//lint:hotpath
func FIRReal(yr, yi, xr, xi, taps []float64) {
	if useSIMD {
		firRealSIMD(yr, yi, xr, xi, taps)
		return
	}
	firRealGo(yr, yi, xr, xi, taps)
}

// firRealGo is the pure-Go tier of FIRReal and the twin of firRealAsm: four
// unrolled output chains per iteration, scalar tail.
//
//lint:hotpath
func firRealGo(yr, yi, xr, xi, taps []float64) {
	last := len(taps) - 1
	n := len(yr)
	i := 0
	for ; i+4 <= n; i += 4 {
		var r0, r1, r2, r3 float64
		var s0, s1, s2, s3 float64
		base := i + last
		for d, t := range taps {
			k := base - d
			r0 += xr[k] * t
			r1 += xr[k+1] * t
			r2 += xr[k+2] * t
			r3 += xr[k+3] * t
			s0 += xi[k] * t
			s1 += xi[k+1] * t
			s2 += xi[k+2] * t
			s3 += xi[k+3] * t
		}
		yr[i], yr[i+1], yr[i+2], yr[i+3] = r0, r1, r2, r3
		yi[i], yi[i+1], yi[i+2], yi[i+3] = s0, s1, s2, s3
	}
	firRealTail(i, yr, yi, xr, xi, taps)
}

// firRealTail computes outputs [i, len(yr)) one at a time — the shared
// scalar remainder of the Go and SIMD tiers.
//
//lint:hotpath
func firRealTail(i int, yr, yi, xr, xi, taps []float64) {
	last := len(taps) - 1
	for ; i < len(yr); i++ {
		var re, im float64
		base := i + last
		for d, t := range taps {
			re += xr[base-d] * t
			im += xi[base-d] * t
		}
		yr[i] = re
		yi[i] = im
	}
}

// FIRCplx filters the planar extended input with complex taps split into
// tr/ti. Bit-identical to FIRCplxRef on either dispatch tier.
//
//lint:hotpath
func FIRCplx(yr, yi, xr, xi, tr, ti []float64) {
	if useSIMD {
		firCplxSIMD(yr, yi, xr, xi, tr, ti)
		return
	}
	firCplxGo(yr, yi, xr, xi, tr, ti)
}

// firCplxGo is the pure-Go tier of FIRCplx and the twin of firCplxAsm: four
// output chains per iteration, scalar tail.
//
//lint:hotpath
func firCplxGo(yr, yi, xr, xi, tr, ti []float64) {
	last := len(tr) - 1
	n := len(yr)
	i := 0
	for ; i+4 <= n; i += 4 {
		var r0, r1, r2, r3 float64
		var s0, s1, s2, s3 float64
		base := i + last
		for d := range tr {
			cr, ci := tr[d], ti[d]
			k := base - d
			w0r, w0i := xr[k], xi[k]
			w1r, w1i := xr[k+1], xi[k+1]
			w2r, w2i := xr[k+2], xi[k+2]
			w3r, w3i := xr[k+3], xi[k+3]
			r0 += w0r*cr - w0i*ci
			r1 += w1r*cr - w1i*ci
			r2 += w2r*cr - w2i*ci
			r3 += w3r*cr - w3i*ci
			s0 += w0r*ci + w0i*cr
			s1 += w1r*ci + w1i*cr
			s2 += w2r*ci + w2i*cr
			s3 += w3r*ci + w3i*cr
		}
		yr[i], yr[i+1], yr[i+2], yr[i+3] = r0, r1, r2, r3
		yi[i], yi[i+1], yi[i+2], yi[i+3] = s0, s1, s2, s3
	}
	firCplxTail(i, yr, yi, xr, xi, tr, ti)
}

// firCplxTail computes outputs [i, len(yr)) one at a time — the shared
// scalar remainder of the Go and SIMD tiers.
//
//lint:hotpath
func firCplxTail(i int, yr, yi, xr, xi, tr, ti []float64) {
	last := len(tr) - 1
	for ; i < len(yr); i++ {
		var re, im float64
		base := i + last
		for d := range tr {
			wr, wi := xr[base-d], xi[base-d]
			cr, ci := tr[d], ti[d]
			re += wr*cr - wi*ci
			im += wr*ci + wi*cr
		}
		yr[i] = re
		yi[i] = im
	}
}
