package kernels

// CorrLags correlates the planar signal re/im against the complex reference
// rr/ri at every lag l < len(cr): cr[l] + i·ci[l] = sum over k of
// (re[l+k] + i·im[l+k])·conj(rr[k] + i·ri[k]), accumulated in tap order in
// split-complex form (real += a*rr + b*ri, imaginary += b*rr - a*ri, one
// rounding per multiply and per add). re and im must have at least
// len(cr)+len(rr)-1 elements, ci at least len(cr) and ri at least len(rr).
//
// Each lag is one pair of independent accumulator chains, and a pass runs
// several lags on one load of each reference tap: four per pass on the Go
// tier (eight scalar chains), eight on the AVX2 tier (one ymm lane per lag
// and component). Every lag's own operation order is the naive complex
// form's — s += z*conj(r) expands to re += a*rr - b*(-ri),
// im += a*(-ri) + b*rr, and IEEE negation is exact — so every output is
// bit-identical to CorrLagsRef on either tier.
//
//lint:hotpath
func CorrLags(cr, ci, re, im, rr, ri []float64) {
	if useSIMD {
		corrLagsSIMD(cr, ci, re, im, rr, ri)
		return
	}
	corrLagsGo(cr, ci, re, im, rr, ri)
}

// corrLagsGo is the pure-Go tier of CorrLags and the twin of corrLagsAsm:
// four lags per pass, then one lag at a time.
//
//lint:hotpath
func corrLagsGo(cr, ci, re, im, rr, ri []float64) {
	n := len(cr)
	ri = ri[:len(rr)]
	l := 0
	for ; l+4 <= n; l += 4 {
		a, b := re[l:l+3+len(rr)], im[l:l+3+len(rr)]
		var r0, r1, r2, r3, i0, i1, i2, i3 float64
		for k, tr := range rr {
			ti := ri[k]
			r0 += a[k]*tr + b[k]*ti
			i0 += b[k]*tr - a[k]*ti
			r1 += a[k+1]*tr + b[k+1]*ti
			i1 += b[k+1]*tr - a[k+1]*ti
			r2 += a[k+2]*tr + b[k+2]*ti
			i2 += b[k+2]*tr - a[k+2]*ti
			r3 += a[k+3]*tr + b[k+3]*ti
			i3 += b[k+3]*tr - a[k+3]*ti
		}
		cr[l], cr[l+1], cr[l+2], cr[l+3] = r0, r1, r2, r3
		ci[l], ci[l+1], ci[l+2], ci[l+3] = i0, i1, i2, i3
	}
	corrLagsTail(l, cr, ci, re, im, rr, ri)
}

// corrLagsTail computes the lags from l on one at a time: the ragged
// remainder of either tier.
//
//lint:hotpath
func corrLagsTail(l int, cr, ci, re, im, rr, ri []float64) {
	ri = ri[:len(rr)]
	for ; l < len(cr); l++ {
		a, b := re[l:l+len(rr)], im[l:l+len(rr)]
		var sr, si float64
		for k, tr := range rr {
			ti := ri[k]
			sr += a[k]*tr + b[k]*ti
			si += b[k]*tr - a[k]*ti
		}
		cr[l], ci[l] = sr, si
	}
}
