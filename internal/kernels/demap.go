package kernels

import "math"

// DemapSoft computes the max-log soft metrics of the square-grid
// constellation whose I and Q axis coordinates are axI and axQ (2, 4 or 8
// coordinates per axis, in label order; a single Q coordinate for BPSK,
// which then carries no Q bits), weighted per symbol by w. It writes bit j
// of symbol i to planes[j*len(ys)+i], the I bits first: for an axis bit
// whose coordinates split into the bit-0 set and the bit-1 set,
//
//	w[i] * ((min_bit1 (y-x)^2 + other) - (min_bit0 (y-x)^2 + other))
//
// with y the symbol's own-axis component and other the minimum squared
// distance over the other axis. planes must hold len(ys) times the number of
// bits per symbol, w at least len(ys).
//
// It returns false, leaving planes unspecified, when any symbol component
// or weight is NaN or ±0: the scalar demapper owns those inputs. On every
// other input each metric is bit-identical to the scalar max-log demapper's
// — the squares and sums are the same single-rounding operations, and the
// minimum of NaN-free squares (never -0) is one exact value in any order of
// evaluation, which frees the tiers to take the minima in their own order.
// The AVX2 tier runs four symbols per vector pass.
//
//lint:hotpath
func DemapSoft(planes []float64, ys []complex128, w []float64, axI, axQ []float64) bool {
	if useSIMD {
		return demapSoftSIMD(planes, ys, w, axI, axQ, len(ys))
	}
	return demapSoftGo(planes, ys, w, axI, axQ, len(ys))
}

// demapSoftGo is the pure-Go tier of DemapSoft and the twin of
// demapSoftAsm, on planes of the given stride: it screens every input, then
// runs each symbol's axis passes as the vector body runs each quad's.
//
//lint:hotpath
func demapSoftGo(planes []float64, ys []complex128, w []float64, axI, axQ []float64, stride int) bool {
	w = w[:len(ys)]
	for i, y := range ys {
		if demapSpecial(real(y)) || demapSpecial(imag(y)) || demapSpecial(w[i]) {
			return false
		}
	}
	for i, y := range ys {
		yr, yi := real(y), imag(y)
		d0Q, d1Q := demapPass(yi, axQ, 1)
		bMin := min(d0Q, d1Q)
		var aMin float64
		p := i
		for bit := 1; bit < len(axI); bit <<= 1 {
			d0, d1 := demapPass(yr, axI, bit)
			if bit == 1 {
				aMin = min(d0, d1)
			}
			planes[p] = w[i] * ((d1 + bMin) - (d0 + bMin))
			p += stride
		}
		for bit := 1; bit < len(axQ); bit <<= 1 {
			d0, d1 := d0Q, d1Q
			if bit > 1 {
				d0, d1 = demapPass(yi, axQ, bit)
			}
			planes[p] = w[i] * ((d1 + aMin) - (d0 + aMin))
			p += stride
		}
	}
	return true
}

// demapSpecial reports whether v is NaN or ±0.
func demapSpecial(v float64) bool {
	//lint:ignore floateq the screen is exact: NaN and ±0 are the inputs the kernel refuses
	return v != v || v == 0
}

// demapPass returns the minimum squared distance from y to the axis
// coordinates whose label has bit clear (d0) and set (d1); a set with no
// coordinate stays +Inf.
//
//lint:hotpath
func demapPass(y float64, ax []float64, bit int) (d0, d1 float64) {
	d0, d1 = math.Inf(1), math.Inf(1)
	for k, x := range ax {
		d := y - x
		d *= d
		if k&bit != 0 {
			d1 = min(d1, d)
		} else {
			d0 = min(d0, d)
		}
	}
	return d0, d1
}
