package kernels

import "math"

// Sincos evaluates the sine and cosine planes of a phase plane — the
// transcendental an oscillator bank pays once per sample. Each lane is
// math.Sincos restated without branches: the same Cody–Waite reduction by
// π/4 in three parts, the same Cephes polynomials in the same operation
// order, with the octant taken by truncation, the sin/cos swap by select
// and the octant and argument signs applied by sign-bit XOR (exact
// negation). Every element is an independent chain, so the AVX2 tier runs
// four per vector with per-element arithmetic unchanged.
//
// The branch-free lane covers the reduction's domain, finite |x| < 2^29.
// Beyond it math.Sincos switches to Payne–Hanek reduction (and returns NaN
// for non-finite input); a quad with any such lane goes through
// math.Sincos whole, so the result is bit-identical everywhere.

// sincosLimit is math.Sincos's reduceThreshold: from 2^29 on it reduces
// with trigReduce instead of the three-part π/4 split.
const sincosLimit = 1 << 29

// π/4 split into three parts (math.Sincos's PI4A, PI4B, PI4C).
const (
	sincosPI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	sincosPI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	sincosPI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
)

// The Cephes sin and cos coefficients (math's _sin and _cos).
const (
	sincosS0 = 1.58962301576546568060e-10  // 0x3de5d8fd1fd19ccd
	sincosS1 = -2.50507477628578072866e-8  // 0xbe5ae5e5a9291f5d
	sincosS2 = 2.75573136213857245213e-6   // 0x3ec71de3567d48a1
	sincosS3 = -1.98412698295895385996e-4  // 0xbf2a01a019bfdf03
	sincosS4 = 8.33333333332211858878e-3   // 0x3f8111111110f7d0
	sincosS5 = -1.66666666666666307295e-1  // 0xbfc5555555555548
	sincosC0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	sincosC1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	sincosC2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	sincosC3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	sincosC4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	sincosC5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// SincosRef is the retained naive reference for Sincos: math.Sincos per
// element. Frozen as the differential-test oracle.
func SincosRef(s, c, x []float64) {
	for i, v := range x {
		s[i], c[i] = math.Sincos(v)
	}
}

// Sincos writes s[i], c[i] = math.Sincos(x[i]); s and c must have at least
// len(x) elements. Bit-identical to SincosRef on either dispatch tier, and
// the cosine plane is also bit-identical to math.Cos.
//
//lint:hotpath
func Sincos(s, c, x []float64) {
	s, c = s[:len(x)], c[:len(x)]
	q := len(x) &^ 3
	for i := 0; i < q; {
		if useSIMD {
			i += sincosSIMD(s[i:q], c[i:q], x[i:q])
		} else {
			i += sincosGo(s[i:q], c[i:q], x[i:q])
		}
		if i < q {
			// A lane outside the branch-free domain stopped the body.
			SincosRef(s[i:i+4], c[i:i+4], x[i:i+4])
			i += 4
		}
	}
	SincosRef(s[q:], c[q:], x[q:])
}

// sincosGo is the pure-Go tier of Sincos's quad body and the twin of
// sincosAsm: it evaluates the quads of x in order and stops before the
// first quad holding a lane that is non-finite or has |x| >= 2^29,
// returning the number of elements written. Only whole quads are
// evaluated; s and c must have at least len(x)&^3 elements.
//
// Each element is one vector lane of sincosAsm. The octant j (the
// truncated |x|·4/π, rounded up to even) picks the result: bit 1 swaps the
// polynomials, bit 2 negates the sine, bit 1 XOR bit 2 negates the cosine,
// and the argument's sign bit is carried to the sine — the sign flips
// math.Sincos applies by branch, applied here by XOR. ±0 needs no special
// case: the reduction of +0 yields sin +0 and cos 1, and -0 gets its sign
// back by the XOR.
//
//lint:hotpath
func sincosGo(s, c, x []float64) int {
	const signBit = 1 << 63
	n := len(x) &^ 3
	s, c = s[:n], c[:n]
	for i := 0; i < n; i += 4 {
		q := x[i : i+4 : i+4]
		if !(math.Abs(q[0]) < sincosLimit && math.Abs(q[1]) < sincosLimit &&
			math.Abs(q[2]) < sincosLimit && math.Abs(q[3]) < sincosLimit) {
			return i
		}
		for k, v := range q {
			bits := math.Float64bits(v)
			ax := math.Float64frombits(bits &^ signBit)
			j := (int32(ax*(4/math.Pi)) + 1) &^ 1
			y := float64(j)
			z := ((ax - y*sincosPI4A) - y*sincosPI4B) - y*sincosPI4C
			zz := z * z
			cp := 1.0 - 0.5*zz + zz*zz*((((((sincosC0*zz)+sincosC1)*zz+sincosC2)*zz+sincosC3)*zz+sincosC4)*zz+sincosC5)
			sp := z + z*zz*((((((sincosS0*zz)+sincosS1)*zz+sincosS2)*zz+sincosS3)*zz+sincosS4)*zz+sincosS5)
			oct := uint64(j)
			if oct&2 != 0 {
				sp, cp = cp, sp
			}
			s[i+k] = math.Float64frombits(math.Float64bits(sp) ^ (bits^oct<<61)&signBit)
			c[i+k] = math.Float64frombits(math.Float64bits(cp) ^ (oct<<61^oct<<62)&signBit)
		}
	}
	return n
}
