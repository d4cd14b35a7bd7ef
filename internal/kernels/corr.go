package kernels

// CorrPair evaluates the two conjugate dot products sum(x1[k]*conj(ref[k]))
// and sum(x2[k]*conj(ref[k])) over len(ref) taps in split-complex form. x1
// and x2 must have at least len(ref) elements. The four accumulators are
// independent dependency chains: the Go tier overlaps them as scalar ILP,
// the AVX2 tier maps them onto the four lanes of one ymm accumulator.
// Bit-identical to CorrPairRef on either tier.
//
//lint:hotpath
func CorrPair(x1, x2, ref []complex128) (s1, s2 complex128) {
	var s1r, s1i, s2r, s2i float64
	if useSIMD {
		s1r, s1i, s2r, s2i = corrPairSIMD(x1, x2, ref)
	} else {
		s1r, s1i, s2r, s2i = corrPairGo(x1, x2, ref)
	}
	return complex(s1r, s1i), complex(s2r, s2i)
}

// corrPairGo is the pure-Go tier of CorrPair and the twin of corrPairAsm:
// four independent accumulator chains, one rounding per multiply and per
// add-pair, accumulated in tap order.
//
//lint:hotpath
func corrPairGo(x1, x2, ref []complex128) (s1r, s1im, s2r, s2im float64) {
	x1 = x1[:len(ref)]
	x2 = x2[:len(ref)]
	for k, r := range ref {
		rr, ri := real(r), imag(r)
		a, b := real(x1[k]), imag(x1[k])
		c, d := real(x2[k]), imag(x2[k])
		s1r += a*rr + b*ri
		s1im += b*rr - a*ri
		s2r += c*rr + d*ri
		s2im += d*rr - c*ri
	}
	return s1r, s1im, s2r, s2im
}
