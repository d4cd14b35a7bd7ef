package kernels

// Planar split-complex FFT kernels. A radix-2 decimation-in-time transform
// factors into a bit-reversal permutation followed by log2(n) butterfly
// stages; within one stage every butterfly is independent, so the SIMD tier
// packs four butterflies (or, in the lane-interleaved X4 layout, the same
// butterfly of four independent transforms) per vector with the scalar
// operation order preserved lane for lane: the twiddle product is the Go
// compiler's complex128 lowering (re = br*wr - bi*wi, im = br*wi + bi*wr,
// one rounding per operation, no FMA), and the butterfly sum/difference
// follow in the same order. The permutation, the final inverse scaling pass
// (a complex multiply by (s, 0), kept in its exact four-multiply form so
// ±0/NaN/Inf propagation matches the interleaved scalar code), and the
// spectral pointwise product used by overlap-save convolution are planar
// kernels of the same contract.
//
// Twiddle factors arrive as per-stage planes (wr/wi of length half): the
// caller precomputes them once per plan — forward and conjugate (exactly
// negated wi) tables — so the stage loop carries no index arithmetic and no
// inverse branch.

// FFTStage applies one radix-2 DIT butterfly stage in place over the planar
// frame re/im: blocks of 2*half elements, the k-th butterfly of every block
// combining elements k and k+half with twiddle (wr[k], wi[k]). len(wr) and
// len(wi) must be at least half and len(re) == len(im) a multiple of
// 2*half. Bit-identical to FFTStageRef on either tier.
//
//lint:hotpath
func FFTStage(re, im []float64, wr, wi []float64, half int) {
	if useSIMD {
		fftStageSIMD(re, im, wr, wi, half)
		return
	}
	fftStageGo(re, im, wr, wi, half)
}

// fftStageGo is the pure-Go tier of FFTStage and the twin of fftStageAsm.
//
//lint:hotpath
func fftStageGo(re, im []float64, wr, wi []float64, half int) {
	wr = wr[:half]
	wi = wi[:half]
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

// FFTStageX4 applies one radix-2 DIT butterfly stage to four independent
// transforms held lane-interleaved: element e of lane l lives at index
// 4*e+l, so each vector holds the same element of all four transforms and
// the twiddle broadcasts. Every stage vectorizes fully this way, including
// half == 1 and half == 2 which the planar single-transform kernel must run
// scalar. len(re) == len(im) must be 4 times a multiple of 2*half.
// Bit-identical to FFTStageX4Ref on either tier.
//
//lint:hotpath
func FFTStageX4(re, im []float64, wr, wi []float64, half int) {
	if useSIMD {
		fftStageX4SIMD(re, im, wr, wi, half)
		return
	}
	fftStageX4Go(re, im, wr, wi, half)
}

// fftStageX4Go is the pure-Go tier of FFTStageX4 and the twin of
// fftStageX4Asm.
//
//lint:hotpath
func fftStageX4Go(re, im []float64, wr, wi []float64, half int) {
	n := len(re) / 4
	wr = wr[:half]
	wi = wi[:half]
	for base := 0; base+2*half <= n; base += 2 * half {
		for k := 0; k < half; k++ {
			twr, twi := wr[k], wi[k]
			for l := 0; l < 4; l++ {
				i, j := 4*(base+k)+l, 4*(base+k+half)+l
				br, bi := re[j], im[j]
				tr := br*twr - bi*twi
				ti := br*twi + bi*twr
				ar, ai := re[i], im[i]
				re[i], im[i] = ar+tr, ai+ti
				re[j], im[j] = ar-tr, ai-ti
			}
		}
	}
}

// FFTPermute gathers src through the index table into dst:
// dst[i] = src[idx[i]] for i < len(idx). dst must have at least len(idx)
// elements and every index must be within src. dst and src must not
// overlap (bit reversal is applied out of place). Pure data movement,
// bit-identical to FFTPermuteRef on either tier.
//
//lint:hotpath
func FFTPermute(dst, src []float64, idx []int64) {
	if useSIMD {
		fftPermuteSIMD(dst, src, idx)
		return
	}
	fftPermuteGo(dst, src, idx)
}

// fftPermuteGo is the pure-Go tier of FFTPermute and the twin of
// fftPermuteAsm.
//
//lint:hotpath
func fftPermuteGo(dst, src []float64, idx []int64) {
	dst = dst[:len(idx)]
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// ScaleCplx multiplies the planar frame by the real scalar s as a complex
// multiply by (s, 0): re' = re*s - im*0, im' = re*0 + im*s. The zero
// products are kept — they are what the interleaved x[i] *= complex(s, 0)
// computes, and they carry the ±0/NaN/Inf propagation that a plain
// per-plane scale would lose. len(im) must be at least len(re).
// Bit-identical to ScaleCplxRef on either tier.
//
//lint:hotpath
func ScaleCplx(re, im []float64, s float64) {
	if useSIMD {
		scaleCplxSIMD(re, im, s)
		return
	}
	scaleCplxGo(re, im, s)
}

// scaleCplxGo is the pure-Go tier of ScaleCplx and the twin of
// scaleCplxAsm.
//
//lint:hotpath
func scaleCplxGo(re, im []float64, s float64) {
	im = im[:len(re)]
	for i := range re {
		xr, xi := re[i], im[i]
		re[i] = xr*s - xi*0
		im[i] = xr*0 + xi*s
	}
}

// MulCplx multiplies the planar frame a by the planar frame b pointwise,
// a[i] *= b[i], in the compiler's complex128 lowering order
// (re = xr*yr - xi*yi, im = xr*yi + xi*yr) — the overlap-save spectral
// product. br/bi/ai must have at least len(ar) elements. Bit-identical to
// MulCplxRef on either tier.
//
//lint:hotpath
func MulCplx(ar, ai, br, bi []float64) {
	if useSIMD {
		mulCplxSIMD(ar, ai, br, bi)
		return
	}
	mulCplxGo(ar, ai, br, bi)
}

// mulCplxGo is the pure-Go tier of MulCplx and the twin of mulCplxAsm.
//
//lint:hotpath
func mulCplxGo(ar, ai, br, bi []float64) {
	ai = ai[:len(ar)]
	br = br[:len(ar)]
	bi = bi[:len(ar)]
	for i := range ar {
		xr, xi := ar[i], ai[i]
		yr, yi := br[i], bi[i]
		ar[i] = xr*yr - xi*yi
		ai[i] = xr*yi + xi*yr
	}
}

// FFTPackX4 gathers four equal-length complex frames into the
// lane-interleaved planar layout through the index table (fusing the
// bit-reversal permutation with the transpose): plane element 4*i+l is
// frame l's element idx[i]. re/im must have at least 4*len(idx) elements
// and xs at least four frames each covering every index. Pure data
// movement.
//
//lint:hotpath
func FFTPackX4(re, im []float64, xs [][]complex128, idx []int64) {
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	for i, j := range idx {
		base := 4 * i
		c0, c1, c2, c3 := x0[j], x1[j], x2[j], x3[j]
		re[base+0], im[base+0] = real(c0), imag(c0)
		re[base+1], im[base+1] = real(c1), imag(c1)
		re[base+2], im[base+2] = real(c2), imag(c2)
		re[base+3], im[base+3] = real(c3), imag(c3)
	}
}

// FFTUnpackX4 scatters the lane-interleaved planar layout back into four
// equal-length complex frames: frame l's element i is
// complex(re[4*i+l], im[4*i+l]). The inverse transpose of FFTPackX4 (with
// the identity index). Pure data movement.
//
//lint:hotpath
func FFTUnpackX4(xs [][]complex128, re, im []float64) {
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	n := len(x0)
	for i := 0; i < n; i++ {
		base := 4 * i
		x0[i] = complex(re[base+0], im[base+0])
		x1[i] = complex(re[base+1], im[base+1])
		x2[i] = complex(re[base+2], im[base+2])
		x3[i] = complex(re[base+3], im[base+3])
	}
}
