package randutil

import "math"

// The ziggurat's wedge test accepts a draw x of strip i when
// l < float32(math.Exp(-.5*x*x)), l a uniform height in the strip. It is
// where the slow path spends its time, in math.Exp. A squeeze decides
// nearly every test from two straight lines in z = x²/2 instead: exp(-z)
// is convex, so over the z range a wedge test of strip i can see it lies
// under the chord between the range's ends and above the tangent at its
// middle. The decision is the exact test's, bit for bit: rounding to
// float32 is monotone, so float32(math.Exp) lies between the bounds'
// float32 roundings, once the bounds are widened by a margin far beyond
// math.Exp's one-ulp error and the bounds' own rounding. When l falls
// between the rounded bounds, math.Exp decides.

// wedgeMargin widens the squeeze's bounds by this fraction of exp(-za),
// the largest value in the strip's z range, and widens the range itself.
const wedgeMargin = 1e-12

// wedgeBounds is strip i's squeeze: the chord ea + slope*(z-za) for z in
// [za, zb], and the tangent et*(1-(z-zt)), good for every z.
type wedgeBounds struct {
	za, zb, ea, slope float64
	zt, et            float64
}

// zigguratWedge holds every strip's squeeze; strip 0 has a tail, not a
// wedge.
var zigguratWedge = func() (w [128]wedgeBounds) {
	for i := 1; i < len(w); i++ {
		// A wedge test of strip i sees |j| in [kn[i], 2^31], so |x| =
		// |j|*wn[i] there, up to the rounding of x and of z, which the
		// margin covers.
		a := float64(zigguratKN[i]) * float64(zigguratWN[i])
		b := (1 << 31) * float64(zigguratWN[i])
		za, zb := .5*a*a*(1-wedgeMargin), .5*b*b*(1+wedgeMargin)
		ea, eb := math.Exp(-za), math.Exp(-zb)
		zt := (za + zb) / 2
		w[i] = wedgeBounds{za: za, zb: zb, ea: ea, slope: (eb - ea) / (zb - za), zt: zt, et: math.Exp(-zt)}
	}
	return w
}()

// underCurve is the wedge test of strip i (1 <= i <= 127),
// l < float32(math.Exp(-.5*x*x)), with x a draw of strip i that failed
// the strip test.
func underCurve(i int32, x float64, l float32) bool {
	y := -.5 * x * x
	if under, ok := wedgeSqueeze(i, -y, l); ok {
		return under
	}
	return l < float32(math.Exp(y))
}

// wedgeSqueeze decides l < float32(math.Exp(-z)) from strip i's bounds;
// ok is false when l lies between them.
func wedgeSqueeze(i int32, z float64, l float32) (under, ok bool) {
	w := &zigguratWedge[i]
	if lo := w.et*(1-(z-w.zt)) - w.ea*wedgeMargin; l < float32(lo) {
		return true, true
	}
	if z >= w.za && z <= w.zb {
		if hi := w.ea + w.slope*(z-w.za) + w.ea*wedgeMargin; l >= float32(hi) {
			return false, true
		}
	}
	return false, false
}
