package rf

// smallAngleMax bounds the |angle| (radians) for which rotateSmall's
// truncated series stays within ~5e-12 of math.Sincos. Larger increments
// (possible in principle for extreme LO offsets or linewidths) fall back to
// the exact library call.
const smallAngleMax = 0.3

// rotateSmall returns e^{j d} for a small rotation increment d via truncated
// Taylor series in Horner form. The per-sample LO phase increment — static
// offset plus Wiener phase-noise step — is typically well below 0.1 rad, so
// the hot mixing loop avoids a math.Sincos per sample; callers must check
// |d| <= smallAngleMax and fall back to math.Sincos beyond it.
//
// Series error at the 0.3 rad bound: |sin| term ~4e-12, |cos| term ~2e-12 —
// far below the phase-noise process itself and removed periodically anyway
// by the caller's exact resynchronization from the accumulated phase.
func rotateSmall(d float64) complex128 {
	d2 := d * d
	sin := d * (1 - d2/6*(1-d2/20*(1-d2/42*(1-d2/72))))
	cos := 1 - d2/2*(1-d2/12*(1-d2/30*(1-d2/56)))
	return complex(cos, sin)
}
