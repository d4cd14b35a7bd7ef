package kernels

// Rotators holds up to four lanes' CFO rotations for RotateLanes, one lane
// per column: each lane's coarse and fine oscillator recurrences (state and
// step, split-complex), as rows RotCoarse+RotRe .. RotFine+RotStepIm.
type Rotators [8][4]float64

// The rows of a Rotators: a rotation's base row (RotCoarse, RotFine) plus
// the field offset.
const (
	RotCoarse = 0
	RotFine   = 4

	RotRe     = 0 // state, real part
	RotIm     = 1 // state, imaginary part
	RotStepRe = 2
	RotStepIm = 3
)

// RotDriftLo and RotDriftHi bound the squared state magnitude inside which
// an oscillator needs no renormalization (dsp.Oscillator's screening band).
const (
	RotDriftLo = 0.9999985
	RotDriftHi = 1.0000015
)

// RotateLanes multiplies len(x0) samples of four lanes in place by their
// rotations — x_k[i] = (x_k[i]*c_k)*f_k with c_k and f_k lane k's coarse and
// fine oscillator samples when both is set, x_k[i]*c_k otherwise — and
// advances each recurrence per sample exactly as dsp.Oscillator does:
// the sample is the state, the next state is state*step. x1..x3 must hold
// at least len(x0) samples.
//
// It returns the number of samples done: len(x0), or the index after the
// first sample at which some lane's new state left the screening band
// [RotDriftLo, RotDriftHi] of squared magnitude. The caller then applies
// the oscillator's renormalization to the states (an exact, rare step this
// package does not own) and calls again for the rest.
//
// Every complex product is Go's own lowering, (a*c - b*d) + (a*d + b*c)i,
// one rounding per operation, so each lane is bit-identical to the
// oscillator's MixInto. The AVX2 tier carries the four lanes in the four
// elements of each vector.
//
//lint:hotpath
func RotateLanes(x0, x1, x2, x3 []complex128, r *Rotators, both bool) int {
	n := len(x0)
	x1, x2, x3 = x1[:n], x2[:n], x3[:n]
	if n == 0 {
		return 0
	}
	if useSIMD {
		return rotateSIMD(x0, x1, x2, x3, r, both)
	}
	return rotateGo(x0, x1, x2, x3, r, both)
}

// rotateGo is the pure-Go tier of RotateLanes and the twin of rotateAsm.
//
//lint:hotpath
func rotateGo(x0, x1, x2, x3 []complex128, r *Rotators, both bool) int {
	xs := [4][]complex128{x0, x1, x2, x3}
	for i := range x0 {
		drift := false
		for k, x := range xs {
			a, b := real(x[i]), imag(x[i])
			a, b, d := rotStep(a, b, r, RotCoarse, k)
			drift = drift || d
			if both {
				a, b, d = rotStep(a, b, r, RotFine, k)
				drift = drift || d
			}
			x[i] = complex(a, b)
		}
		if drift {
			return i + 1
		}
	}
	return len(x0)
}

// rotStep multiplies (a, b) by lane k's oscillator sample of rotation row
// base and advances its state, reporting whether the new state drifted.
//
//lint:hotpath
func rotStep(a, b float64, r *Rotators, base, k int) (float64, float64, bool) {
	ur, ui := r[base+RotRe][k], r[base+RotIm][k]
	sr, si := r[base+RotStepRe][k], r[base+RotStepIm][k]
	nr, ni := ur*sr-ui*si, ur*si+ui*sr
	r[base+RotRe][k], r[base+RotIm][k] = nr, ni
	m := nr*nr + ni*ni
	return a*ur - b*ui, a*ui + b*ur, m < RotDriftLo || m > RotDriftHi
}
