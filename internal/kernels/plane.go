package kernels

// Plane kernels: elementwise passes over float64 planes and the pack/unpack
// transposes between interleaved complex128 frames and the planar layout.
// Every element is an independent one- or zero-operation chain, so the SIMD
// tier is trivially bit-exact; the wins are pure bandwidth (4 elements per
// vector instead of per-element scalar loads and the complex128 two-phase
// load/store the compiler emits for interleaved frames).

// AddPlane adds src into dst elementwise: dst[i] += src[i]. src must have at
// least len(dst) elements. Bit-identical to AddPlaneRef on either tier.
//
//lint:hotpath
func AddPlane(dst, src []float64) {
	if useSIMD {
		addPlaneSIMD(dst, src)
		return
	}
	addPlaneGo(dst, src)
}

// addPlaneGo is the pure-Go tier of AddPlane and the twin of addPlaneAsm.
//
//lint:hotpath
func addPlaneGo(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// ScalePlane scales dst elementwise: dst[i] *= s. Bit-identical to
// ScalePlaneRef on either tier.
//
//lint:hotpath
func ScalePlane(dst []float64, s float64) {
	if useSIMD {
		scalePlaneSIMD(dst, s)
		return
	}
	scalePlaneGo(dst, s)
}

// scalePlaneGo is the pure-Go tier of ScalePlane and the twin of
// scalePlaneAsm.
//
//lint:hotpath
func scalePlaneGo(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// Deinterleave unpacks the interleaved complex frame x into planes:
// re[i], im[i] = real(x[i]), imag(x[i]). re/im must have at least len(x)
// elements. Pure data movement, bit-identical to DeinterleaveRef on either
// tier.
//
//lint:hotpath
func Deinterleave(re, im []float64, x []complex128) {
	if useSIMD {
		deinterleaveSIMD(re, im, x)
		return
	}
	deinterleaveGo(re, im, x)
}

// deinterleaveGo is the pure-Go tier of Deinterleave and the twin of
// deinterleaveAsm.
//
//lint:hotpath
func deinterleaveGo(re, im []float64, x []complex128) {
	re = re[:len(x)]
	im = im[:len(x)]
	for i, c := range x {
		re[i] = real(c)
		im[i] = imag(c)
	}
}

// Interleave packs the planes re/im into the interleaved complex frame x:
// x[i] = complex(re[i], im[i]). re/im must have at least len(x) elements.
// Pure data movement, bit-identical to InterleaveRef on either tier.
//
//lint:hotpath
func Interleave(x []complex128, re, im []float64) {
	if useSIMD {
		interleaveSIMD(x, re, im)
		return
	}
	interleaveGo(x, re, im)
}

// interleaveGo is the pure-Go tier of Interleave and the twin of
// interleaveAsm.
//
//lint:hotpath
func interleaveGo(x []complex128, re, im []float64) {
	re = re[:len(x)]
	im = im[:len(x)]
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
}
