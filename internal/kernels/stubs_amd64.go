//go:build amd64 && !purego

package kernels

// AVX2 tier: //go:noescape stubs for the hand-written kernels in
// simd_amd64.s, plus the thin wrappers that feed the vector bodies whole
// quads and run the shared scalar tails on the ragged remainder. Every stub
// fooAsm has a pure-Go twin fooGo with the identical signature; the wlanlint
// asmtwin analyzer enforces the pairing and the asmtwins differential suite
// pins the two bit-identical on adversarial inputs under both tiers.
//
// The vector bodies never combine values from different chains: one ymm lane
// carries one scalar dependency chain (a FIR output, a biquad lane, a mixer
// sample, an ACS butterfly), with no FMA contraction and no reassociation,
// so per-chain arithmetic — operation order and one rounding per operation —
// is exactly the Go twin's.

// acsMaskA/acsMaskB hold, per butterfly s, the IEEE sign mask (0 or 1<<63)
// of the even edge's A/B branch metric: XORing the broadcast branch metric
// with the mask yields the signed operand, and XORing again with 1<<63 its
// exact negation — the odd edge and the upper-target signs are complements
// (see ACSStepRef). Filled from acsSelA/acsSelB at init; read only by
// acsStepAsm.
var acsMaskA, acsMaskB [32]uint64

func init() {
	// Runs after acs.go's init (file-name order) — acsSelA/acsSelB are
	// already populated.
	for s := 0; s < 32; s++ {
		acsMaskA[s] = uint64(acsSelA[2*s]) << 63
		acsMaskB[s] = uint64(acsSelB[2*s]) << 63
	}
}

// acsStepAsm advances one clean trellis step, four butterflies per vector;
// requires the acsStepGo precondition (finite mA/mB, no NaN/+Inf metrics).
//
//go:noescape
func acsStepAsm(next, metric *[64]float64, mA, mB float64) uint64

// firRealAsm computes len(yr) outputs, four per vector; len(yr) must be a
// positive multiple of 4 and yi must have at least len(yr) elements.
//
//go:noescape
func firRealAsm(yr, yi, xr, xi, taps []float64)

// firCplxAsm computes len(yr) outputs, four per vector; len(yr) must be a
// positive multiple of 4 and yi must have at least len(yr) elements.
//
//go:noescape
func firCplxAsm(yr, yi, xr, xi, tr, ti []float64)

// mixApplyAsm processes len(xr) samples, four per vector; len(xr) must be a
// positive multiple of 4 and xi at least as long.
//
//go:noescape
func mixApplyAsm(xr, xi []float64, mur, mui, nur, nui, gain, dcr, dci float64)

// mixApplyLOAsm processes len(xr) samples, four per vector; len(xr) must be
// a positive multiple of 4 and xi/lor/loi at least as long.
//
//go:noescape
func mixApplyLOAsm(xr, xi, lor, loi []float64, mur, mui, nur, nui, gain, dcr, dci float64)

// biquadQuadAsm advances exactly four lanes (re[0..3]/im[0..3], equal
// lengths) with one recurrence per vector lane; the coefficient vectors
// carry the four lanes' sections and s1r/s1i/s2r/s2i their delay states in
// their first four elements.
//
//go:noescape
func biquadQuadAsm(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64)

// corrPairAsm accumulates the four correlation chains in one vector over
// len(ref) taps; x1/x2 must have at least len(ref) elements.
//
//go:noescape
func corrPairAsm(x1, x2, ref []complex128) (s1r, s1im, s2r, s2im float64)

// addPlaneAsm adds src into dst over len(dst) elements; len(dst) must be a
// positive multiple of 4 and src at least as long.
//
//go:noescape
func addPlaneAsm(dst, src []float64)

// scalePlaneAsm scales dst over len(dst) elements; len(dst) must be a
// positive multiple of 4.
//
//go:noescape
func scalePlaneAsm(dst []float64, s float64)

// interleaveAsm packs len(x) elements; len(x) must be a positive multiple
// of 4 and re/im at least as long.
//
//go:noescape
func interleaveAsm(x []complex128, re, im []float64)

// deinterleaveAsm unpacks len(x) elements; len(x) must be a positive
// multiple of 4 and re/im at least as long.
//
//go:noescape
func deinterleaveAsm(re, im []float64, x []complex128)

// fftStageAsm applies one butterfly stage, four butterflies per vector;
// either half must be a positive multiple of 4 and len(re) a positive
// multiple of 2*half, or half must be 1 or 2 and len(re) a positive
// multiple of 8, with im/wr/wi sized as for FFTStage.
//
//go:noescape
func fftStageAsm(re, im []float64, wr, wi []float64, half int)

// fftStageX4Asm applies one lane-interleaved butterfly stage, one butterfly
// of four independent transforms per vector; half must be positive and
// len(re) a positive multiple of 8*half.
//
//go:noescape
func fftStageX4Asm(re, im []float64, wr, wi []float64, half int)

// fftPermuteAsm gathers len(idx) elements, four per vector; len(idx) must
// be a positive multiple of 4, every index within src, and dst disjoint
// from src.
//
//go:noescape
func fftPermuteAsm(dst, src []float64, idx []int64)

// scaleCplxAsm scales len(re) planar elements as a complex multiply by
// (s, 0), four per vector; len(re) must be a positive multiple of 4 and im
// at least as long.
//
//go:noescape
func scaleCplxAsm(re, im []float64, s float64)

// mulCplxAsm multiplies len(ar) planar elements pointwise, four per vector;
// len(ar) must be a positive multiple of 4 and ai/br/bi at least as long.
//
//go:noescape
func mulCplxAsm(ar, ai, br, bi []float64)

// sincosAsm evaluates the quads of x, four lanes per vector, and stops
// before the first quad with a lane outside |x| < 2^29 (NaN and ±Inf
// included), returning the number of elements written; len(x) must be a
// multiple of 4 and s/c at least as long.
//
//go:noescape
func sincosAsm(s, c, x []float64) int

// normQuadsAsm takes normQuadsGo's draws, four per vector, and stops at
// the same draw; the walkers must be in range and hold math/rand's lag.
//
//go:noescape
func normQuadsAsm(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int

// ctSolveAsm steps the circuit over len(v) samples; c1/c2/msk must have
// len(v) elements, noise none or len(v), out room for p.Outputs(len(v))
// samples, and p.Decim >= 1 with 0 <= p.Phase < p.Decim.
//
//go:noescape
func ctSolveAsm(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int

// agcQuadAsm steps the four lanes lanes[0..3] (equal lengths) from sample
// i up to n and returns the index after the first sample at which a lane's
// Resync reaches AGCResyncInterval, or n; every Resync must be below it on
// entry.
//
//go:noescape
func agcQuadAsm(lanes [][]complex128, i, n int, st *[4]AGCLane, law *AGCLaw) int

// agcOctAsm is agcQuadAsm on the eight lanes lanes[0..7].
//
//go:noescape
func agcOctAsm(lanes [][]complex128, i, n int, st *[8]AGCLane, law *AGCLaw) int

//lint:hotpath
func acsStepSIMD(next, metric *[64]float64, mA, mB float64) uint64 {
	return acsStepAsm(next, metric, mA, mB)
}

//lint:hotpath
func firRealSIMD(yr, yi, xr, xi, taps []float64) {
	q := len(yr) &^ 3
	if q > 0 {
		firRealAsm(yr[:q], yi, xr, xi, taps)
	}
	firRealTail(q, yr, yi, xr, xi, taps)
}

//lint:hotpath
func firCplxSIMD(yr, yi, xr, xi, tr, ti []float64) {
	q := len(yr) &^ 3
	if q > 0 {
		firCplxAsm(yr[:q], yi, xr, xi, tr, ti)
	}
	firCplxTail(q, yr, yi, xr, xi, tr, ti)
}

//lint:hotpath
func mixApplySIMD(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	q := len(xr) &^ 3
	if q > 0 {
		mixApplyAsm(xr[:q], xi, mur, mui, nur, nui, g, dcr, dci)
	}
	mixApplyTail(q, xr, xi, mur, mui, nur, nui, g, dcr, dci)
}

//lint:hotpath
func mixApplyLOSIMD(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	q := len(xr) &^ 3
	if q > 0 {
		mixApplyLOAsm(xr[:q], xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
	}
	mixApplyLOTail(q, xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
}

//lint:hotpath
func biquadBatchSIMD(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	b := 0
	for ; b+4 <= len(re); b += 4 {
		biquadQuadAsm(re[b:b+4], im[b:b+4], b0[b:b+4], b1[b:b+4], b2[b:b+4], a1[b:b+4], a2[b:b+4],
			s1r[b:b+4], s1i[b:b+4], s2r[b:b+4], s2i[b:b+4])
	}
	switch len(re) - b {
	case 1:
		biquadLane(re[b], im[b], b0[b], b1[b], b2[b], a1[b], a2[b], s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	case 2, 3:
		biquadPadded(re[b:], im[b:], b0[b:], b1[b:], b2[b:], a1[b:], a2[b:], s1r[b:], s1i[b:], s2r[b:], s2i[b:])
	}
}

// biquadPadLen is the sample block of a padded quad's dummy lanes: a zero
// plane through an all-zero section stays zero.
const biquadPadLen = 256

// biquadPadded runs two or three lanes as a quad padded with dummy lanes.
//
//lint:hotpath
func biquadPadded(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	r, n := len(re), len(re[0])
	var c [9][4]float64 // b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i; zero for dummies
	for k, v := range [9][]float64{b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i} {
		copy(c[k][:r], v)
	}
	var pad [biquadPadLen]float64
	var qr, qi [4][]float64
	for s := 0; s < n; s += biquadPadLen {
		e := min(s+biquadPadLen, n)
		for k := range qr {
			if k < r {
				qr[k], qi[k] = re[k][s:e], im[k][s:e]
			} else {
				qr[k], qi[k] = pad[:e-s], pad[:e-s]
			}
		}
		biquadQuadAsm(qr[:], qi[:], c[0][:], c[1][:], c[2][:], c[3][:], c[4][:], c[5][:], c[6][:], c[7][:], c[8][:])
	}
	for k, v := range [4][]float64{s1r, s1i, s2r, s2i} {
		copy(v[:r], c[5+k][:r])
	}
}

//lint:hotpath
func corrPairSIMD(x1, x2, ref []complex128) (s1r, s1im, s2r, s2im float64) {
	return corrPairAsm(x1, x2, ref)
}

//lint:hotpath
func addPlaneSIMD(dst, src []float64) {
	q := len(dst) &^ 3
	if q > 0 {
		addPlaneAsm(dst[:q], src)
	}
	for i := q; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

//lint:hotpath
func scalePlaneSIMD(dst []float64, s float64) {
	q := len(dst) &^ 3
	if q > 0 {
		scalePlaneAsm(dst[:q], s)
	}
	for i := q; i < len(dst); i++ {
		dst[i] *= s
	}
}

//lint:hotpath
func interleaveSIMD(x []complex128, re, im []float64) {
	q := len(x) &^ 3
	if q > 0 {
		interleaveAsm(x[:q], re, im)
	}
	for i := q; i < len(x); i++ {
		x[i] = complex(re[i], im[i])
	}
}

//lint:hotpath
func deinterleaveSIMD(re, im []float64, x []complex128) {
	q := len(x) &^ 3
	if q > 0 {
		deinterleaveAsm(re, im, x[:q])
	}
	for i := q; i < len(x); i++ {
		re[i] = real(x[i])
		im[i] = imag(x[i])
	}
}

//lint:hotpath
func fftStageSIMD(re, im []float64, wr, wi []float64, half int) {
	// The vector body packs four butterflies per ymm: whole quads inside
	// each block for half >= 4, two blocks' worth (eight elements) per
	// iteration for half 1 and 2. Other shapes (half 3 or 5, a ragged
	// frame) run the scalar twin outright — no per-block tails.
	if len(re) == 0 || len(re)%(2*half) != 0 ||
		half&3 != 0 && (half > 2 || len(re)%8 != 0) {
		fftStageGo(re, im, wr, wi, half)
		return
	}
	fftStageAsm(re, im, wr, wi, half)
}

//lint:hotpath
func fftStageX4SIMD(re, im []float64, wr, wi []float64, half int) {
	if len(re) == 0 || len(re)%(8*half) != 0 {
		fftStageX4Go(re, im, wr, wi, half)
		return
	}
	fftStageX4Asm(re, im, wr, wi, half)
}

//lint:hotpath
func fftPermuteSIMD(dst, src []float64, idx []int64) {
	q := len(idx) &^ 3
	if q > 0 {
		fftPermuteAsm(dst, src, idx[:q])
	}
	for i := q; i < len(idx); i++ {
		dst[i] = src[idx[i]]
	}
}

//lint:hotpath
func scaleCplxSIMD(re, im []float64, s float64) {
	q := len(re) &^ 3
	if q > 0 {
		scaleCplxAsm(re[:q], im, s)
	}
	for i := q; i < len(re); i++ {
		xr, xi := re[i], im[i]
		re[i] = xr*s - xi*0
		im[i] = xr*0 + xi*s
	}
}

//lint:hotpath
func mulCplxSIMD(ar, ai, br, bi []float64) {
	q := len(ar) &^ 3
	if q > 0 {
		mulCplxAsm(ar[:q], ai, br, bi)
	}
	for i := q; i < len(ar); i++ {
		xr, xi := ar[i], ai[i]
		yr, yi := br[i], bi[i]
		ar[i] = xr*yr - xi*yi
		ai[i] = xr*yi + xi*yr
	}
}

//lint:hotpath
func sincosSIMD(s, c, x []float64) int {
	return sincosAsm(s, c, x)
}

//lint:hotpath
func normQuadsSIMD(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int {
	return normQuadsAsm(lo, hi, reg, tap, feed, tab, mul, add, pairs)
}

//lint:hotpath
func ctSolveSIMD(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int {
	return ctSolveAsm(out, v, c1, c2, msk, noise, p)
}

// agcVecMin is the fewest lanes the AGC kernel runs on the vector tier: a
// single lane steps faster through the branchy Go law, which skips the
// logarithm under a slew clamp, than as one live lane of a padded quad.
const agcVecMin = 2

// agcPadLen is the sample block of a padded group's dummy lanes: a zero
// frame on a zero state stays zero and never moves its gain.
const agcPadLen = 256

// agcLanesSIMD runs the lanes in groups of eight (two quads whose serial
// loop chains the core overlaps) on the vector tier. A remainder of five to
// seven lanes runs as a group of eight padded with dummy lanes and one of
// agcVecMin to four as a quad, padded up to four; a frozen loop or a smaller
// remainder takes the Go tier.
//
//lint:hotpath
func agcLanesSIMD(lanes [][]complex128, st []AGCLane, law *AGCLaw) {
	L := len(lanes)
	if law.Freeze || L < agcVecMin {
		agcLanesGo(lanes, st, law)
		return
	}
	st = st[:L]
	n := len(lanes[0])
	b := 0
	for ; b+8 <= L; b += 8 {
		agcGroupRun(lanes[b:b+8], n, st[b:b+8], law)
	}
	r := L - b
	if r < agcVecMin {
		agcLanesGo(lanes[b:], st[b:], law)
		return
	}
	w := 4
	if r > 4 {
		w = 8
	}
	var pad [agcPadLen]complex128
	var q [8][]complex128
	var s [8]AGCLane
	copy(s[:], st[b:])
	for c := 0; c < n; c += agcPadLen {
		e := min(c+agcPadLen, n)
		for k := range q[:w] {
			if k < r {
				q[k] = lanes[b+k][c:e]
			} else {
				q[k] = pad[:e-c]
			}
		}
		agcGroupRun(q[:w], e-c, s[:w], law)
	}
	copy(st[b:], s[:r])
}

// agcGroupRun steps a group of four or eight lanes over n samples on the
// vector body, recomputing a lane's gain exactly whenever the body returns
// at a resync.
//
//lint:hotpath
func agcGroupRun(q [][]complex128, n int, s []AGCLane, law *AGCLaw) {
	for i := 0; i < n; {
		if len(q) == 8 {
			i = agcOctAsm(q, i, n, (*[8]AGCLane)(s), law)
		} else {
			i = agcQuadAsm(q, i, n, (*[4]AGCLane)(s), law)
		}
		for l := range s {
			agcResync(&s[l])
		}
	}
}
