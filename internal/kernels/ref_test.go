package kernels

import "math"

// BiquadBatchRef is the retained naive reference for BiquadBatch: one lane
// at a time through the textbook transposed direct-form-II update, lane b
// with its own coefficients. It is the differential-test oracle and must
// stay semantically frozen; it is also, by construction, the arithmetic of
// dsp.Biquad applied lane-wise.
func BiquadBatchRef(re, im [][]float64, cb0, cb1, cb2, ca1, ca2, s1r, s1i, s2r, s2i []float64) {
	for b := range re {
		b0, b1, b2, a1, a2 := cb0[b], cb1[b], cb2[b], ca1[b], ca2[b]
		for i := range re[b] {
			xr, xi := re[b][i], im[b][i]
			yr := b0*xr + s1r[b]
			yi := b0*xi + s1i[b]
			s1r[b] = b1*xr - a1*yr + s2r[b]
			s1i[b] = b1*xi - a1*yi + s2i[b]
			s2r[b] = b2*xr - a2*yr
			s2i[b] = b2*xi - a2*yi
			re[b][i] = yr
			im[b][i] = yi
		}
	}
}

// CorrLagsRef is the retained naive reference for CorrLags: each lag's
// conjugate dot product in complex arithmetic, one accumulator per lag,
// returned as planes. Frozen as the differential-test oracle.
//
// The split-complex kernels are bit-identical to it because each tap of
// s += z*conj(r) expands to re += a*rr - b*(-ri), im += a*(-ri) + b*rr,
// and IEEE-754 negation is exact, so each expression rounds identically to
// the single-rounding forms a*rr + b*ri and b*rr - a*ri the kernels use.
func CorrLagsRef(seg, ref []complex128, lags int) (cr, ci []float64) {
	cr, ci = make([]float64, lags), make([]float64, lags)
	for l := range cr {
		var s complex128
		for k, r := range ref {
			s += seg[l+k] * complex(real(r), -imag(r))
		}
		cr[l], ci[l] = real(s), imag(s)
	}
	return cr, ci
}

// FFTStageRef is the retained naive reference for FFTStage. Frozen as the
// differential-test oracle.
func FFTStageRef(re, im []float64, wr, wi []float64, half int) {
	for base := 0; base+2*half <= len(re); base += 2 * half {
		for k := 0; k < half; k++ {
			i, j := base+k, base+k+half
			br, bi := re[j], im[j]
			tr := br*wr[k] - bi*wi[k]
			ti := br*wi[k] + bi*wr[k]
			ar, ai := re[i], im[i]
			re[i], im[i] = ar+tr, ai+ti
			re[j], im[j] = ar-tr, ai-ti
		}
	}
}

// FFTStageX4Ref is the retained naive reference for FFTStageX4. Frozen as
// the differential-test oracle.
func FFTStageX4Ref(re, im []float64, wr, wi []float64, half int) {
	n := len(re) / 4
	for base := 0; base+2*half <= n; base += 2 * half {
		for k := 0; k < half; k++ {
			for l := 0; l < 4; l++ {
				i, j := 4*(base+k)+l, 4*(base+k+half)+l
				br, bi := re[j], im[j]
				tr := br*wr[k] - bi*wi[k]
				ti := br*wi[k] + bi*wr[k]
				ar, ai := re[i], im[i]
				re[i], im[i] = ar+tr, ai+ti
				re[j], im[j] = ar-tr, ai-ti
			}
		}
	}
}

// FFTPermuteRef is the retained naive reference for FFTPermute. Frozen as
// the differential-test oracle.
func FFTPermuteRef(dst, src []float64, idx []int64) {
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// ScaleCplxRef is the retained naive reference for ScaleCplx. Frozen as the
// differential-test oracle.
func ScaleCplxRef(re, im []float64, s float64) {
	for i := range re {
		xr, xi := re[i], im[i]
		re[i] = xr*s - xi*0
		im[i] = xr*0 + xi*s
	}
}

// MulCplxRef is the retained naive reference for MulCplx. Frozen as the
// differential-test oracle.
func MulCplxRef(ar, ai, br, bi []float64) {
	for i := range ar {
		xr, xi := ar[i], ai[i]
		yr, yi := br[i], bi[i]
		ar[i] = xr*yr - xi*yi
		ai[i] = xr*yi + xi*yr
	}
}

// FIRRealRef is the retained naive reference for FIRReal: one output at a
// time, tap index ascending over the newest-first window. Frozen as the
// differential-test oracle.
func FIRRealRef(yr, yi, xr, xi, taps []float64) {
	last := len(taps) - 1
	for i := range yr {
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

// FIRCplxRef is the retained naive reference for FIRCplx: complex taps
// tr/ti, one output at a time. Each product mirrors Go's complex128 multiply
// lowering — re = wr·tr − wi·ti and im = wr·ti + wi·tr, each of the two
// multiplies rounded individually before the combine — followed by one add
// into the accumulator, exactly the interleaved form's sequence. Frozen as
// the differential-test oracle.
func FIRCplxRef(yr, yi, xr, xi, tr, ti []float64) {
	last := len(tr) - 1
	for i := range yr {
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

// MixApplyLORef is the retained naive reference for MixApplyLO. Frozen as
// the differential-test oracle.
func MixApplyLORef(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for i := range xr {
		vr, vi := xr[i], xi[i]
		ci := -vi
		yr := (mur*vr - mui*vi) + (nur*vr - nui*ci)
		yi := (mur*vi + mui*vr) + (nur*ci + nui*vr)
		lr, li := lor[i], loi[i]
		zr := yr*lr - yi*li
		zi := yr*li + yi*lr
		xr[i] = g*zr + dcr
		xi[i] = g*zi + dci
	}
}

// MixApplyRef is the retained naive reference for MixApply (no LO rotation).
// Frozen as the differential-test oracle.
func MixApplyRef(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for i := range xr {
		vr, vi := xr[i], xi[i]
		ci := -vi
		yr := (mur*vr - mui*vi) + (nur*vr - nui*ci)
		yi := (mur*vi + mui*vr) + (nur*ci + nui*vr)
		xr[i] = g*yr + dcr
		xi[i] = g*yi + dci
	}
}

// PhasorRef returns the exact reference phasor for absolute sample index t:
// math.Sincos of the rational phase. It is the differential-test oracle for
// Fill and must stay frozen.
func (l *LOTable) PhasorRef(t int) (re, im float64) {
	j := ((l.k*t)%l.n + l.n) % l.n
	s, c := math.Sincos(2 * math.Pi * float64(j) / float64(l.n))
	return c, s
}

// AddPlaneRef is the retained naive reference for AddPlane. Frozen as the
// differential-test oracle.
func AddPlaneRef(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// ScalePlaneRef is the retained naive reference for ScalePlane. Frozen as
// the differential-test oracle.
func ScalePlaneRef(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// DeinterleaveRef is the retained naive reference for Deinterleave. Frozen
// as the differential-test oracle.
func DeinterleaveRef(re, im []float64, x []complex128) {
	for i, c := range x {
		re[i] = real(c)
		im[i] = imag(c)
	}
}

// InterleaveRef is the retained naive reference for Interleave. Frozen as
// the differential-test oracle.
func InterleaveRef(x []complex128, re, im []float64) {
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
}
