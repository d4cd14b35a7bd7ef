//go:build !amd64 || purego

package kernels

// Builds without the assembly tier alias every SIMD entry point to its
// pure-Go twin. They are unreachable (useSIMD is constant false here —
// simdAvailable never becomes true in cpu_noasm.go) but keep the shared
// dispatchers compiling identically on every build.

//lint:hotpath
func acsStepSIMD(next, metric *[64]float64, mA, mB float64) uint64 {
	return acsStepGo(next, metric, mA, mB)
}

//lint:hotpath
func firRealSIMD(yr, yi, xr, xi, taps []float64) {
	firRealGo(yr, yi, xr, xi, taps)
}

//lint:hotpath
func firCplxSIMD(yr, yi, xr, xi, tr, ti []float64) {
	firCplxGo(yr, yi, xr, xi, tr, ti)
}

//lint:hotpath
func mixApplySIMD(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	mixApplyGo(xr, xi, mur, mui, nur, nui, g, dcr, dci)
}

//lint:hotpath
func mixApplyLOSIMD(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	mixApplyLOGo(xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
}

//lint:hotpath
func biquadBatchSIMD(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64) {
	biquadBatchGo(re, im, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)
}

//lint:hotpath
func corrPairSIMD(x1, x2, ref []complex128) (s1r, s1im, s2r, s2im float64) {
	return corrPairGo(x1, x2, ref)
}

//lint:hotpath
func addPlaneSIMD(dst, src []float64) {
	addPlaneGo(dst, src)
}

//lint:hotpath
func scalePlaneSIMD(dst []float64, s float64) {
	scalePlaneGo(dst, s)
}

//lint:hotpath
func interleaveSIMD(x []complex128, re, im []float64) {
	interleaveGo(x, re, im)
}

//lint:hotpath
func deinterleaveSIMD(re, im []float64, x []complex128) {
	deinterleaveGo(re, im, x)
}

//lint:hotpath
func fftStageSIMD(re, im []float64, wr, wi []float64, half int) {
	fftStageGo(re, im, wr, wi, half)
}

//lint:hotpath
func fftStageX4SIMD(re, im []float64, wr, wi []float64, half int) {
	fftStageX4Go(re, im, wr, wi, half)
}

//lint:hotpath
func fftPermuteSIMD(dst, src []float64, idx []int64) {
	fftPermuteGo(dst, src, idx)
}

//lint:hotpath
func scaleCplxSIMD(re, im []float64, s float64) {
	scaleCplxGo(re, im, s)
}

//lint:hotpath
func mulCplxSIMD(ar, ai, br, bi []float64) {
	mulCplxGo(ar, ai, br, bi)
}

//lint:hotpath
func sincosSIMD(s, c, x []float64) int {
	return sincosGo(s, c, x)
}

//lint:hotpath
func normQuadsSIMD(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int {
	return normQuadsGo(lo, hi, reg, tap, feed, tab, mul, add, pairs)
}

//lint:hotpath
func ctSolveSIMD(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int {
	return ctSolveGo(out, v, c1, c2, msk, noise, p)
}

//lint:hotpath
func agcLanesSIMD(lanes [][]complex128, st []AGCLane, law *AGCLaw) {
	agcLanesGo(lanes, st, law)
}
