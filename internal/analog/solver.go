// Package analog is the mixed-signal co-simulation substitute for the
// SpectreRF/AMS-Designer flow of the paper (§3.2, §3.3, §4.3): a
// continuous-time solver that integrates behavioral circuit models
// (RC coupling networks, Chebyshev ladder filters, memoryless
// nonlinearities, oscillators) with the trapezoidal rule on a real passband
// representation of the receiver at a scaled carrier frequency.
//
// Compared with the complex-baseband models in package rf this is far more
// detailed — the LNA distorts the true RF waveform, the mixers create real
// image products, the filters are analog prototypes — and correspondingly
// slower, which is exactly the trade-off Table 2 of the paper quantifies.
package analog

import (
	"fmt"
	"math"
)

// Stage is a continuous-time single-input single-output circuit stage
// integrated sample by sample. The step size is fixed by the solver rate.
type Stage interface {
	// Step advances the stage by one time step with input u and returns
	// the output.
	Step(u float64) float64
	// Reset clears the stage's state.
	Reset()
}

// CTBiquad integrates the second-order transfer function
//
//	H(s) = (b0 + b1 s + b2 s^2) / (a0 + a1 s + s^2)
//
// with the trapezoidal rule in controllable canonical form.
type CTBiquad struct {
	c0, c1, d float64
	// Per-step constants of the trapezoidal update, hoisted out of Step:
	// h2 = h/2, na0 = -h2*a0, k22 = 1-h2*a1.
	h2, na0, k22 float64
	x1, x2       float64 // state
	u            float64 // previous input
	m11, m12     float64 // precomputed (I - h/2 A)^-1
	m21, m22     float64
}

// NewCTBiquad creates the stage for step size h = 1/sampleRate.
func NewCTBiquad(b0, b1, b2, a0, a1, sampleRateHz float64) (*CTBiquad, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("analog: sample rate %g", sampleRateHz)
	}
	h := 1 / sampleRateHz
	h2 := h / 2
	q := &CTBiquad{
		c0: b0 - b2*a0, c1: b1 - b2*a1, d: b2,
		h2: h2, na0: -h2 * a0, k22: 1 - h2*a1,
	}
	// M = I - h/2*A with A = [[0,1],[-a0,-a1]].
	m := [2][2]float64{{1, -h2}, {h2 * a0, 1 + h2*a1}}
	det := m[0][0]*m[1][1] - m[0][1]*m[1][0]
	if det == 0 {
		return nil, fmt.Errorf("analog: singular integration matrix")
	}
	q.m11 = m[1][1] / det
	q.m12 = -m[0][1] / det
	q.m21 = -m[1][0] / det
	q.m22 = m[0][0] / det
	return q, nil
}

// Step advances the biquad by one step (trapezoidal rule).
func (q *CTBiquad) Step(u float64) float64 {
	// rhs = (I + h/2 A) x + h/2 B (u_prev + u), B = [0,1]^T.
	r1 := q.x1 + q.h2*q.x2
	r2 := q.na0*q.x1 + q.k22*q.x2 + q.h2*(q.u+u)
	q.x1 = q.m11*r1 + q.m12*r2
	q.x2 = q.m21*r1 + q.m22*r2
	q.u = u
	return q.c0*q.x1 + q.c1*q.x2 + q.d*u
}

// Reset clears the state.
func (q *CTBiquad) Reset() { q.x1, q.x2, q.u = 0, 0, 0 }

// CTFirstOrder integrates H(s) = (b0 + b1 s) / (a0 + s).
type CTFirstOrder struct {
	c, d float64
	// Per-step constants of the trapezoidal update, hoisted out of Step:
	// h2 = h/2, k = 1-h2*a0, den = 1+h2*a0.
	h2, k, den float64
	x, u       float64
}

// NewCTFirstOrder creates the stage for the given sample rate.
func NewCTFirstOrder(b0, b1, a0, sampleRateHz float64) (*CTFirstOrder, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("analog: sample rate %g", sampleRateHz)
	}
	h2 := 1 / sampleRateHz / 2
	return &CTFirstOrder{c: b0 - b1*a0, d: b1, h2: h2, k: 1 - h2*a0, den: 1 + h2*a0}, nil
}

// Step advances the stage (trapezoidal rule on x' = -a0 x + u).
func (f *CTFirstOrder) Step(u float64) float64 {
	f.x = (f.k*f.x + f.h2*(f.u+u)) / f.den
	f.u = u
	return f.c*f.x + f.d*u
}

// Reset clears the state.
func (f *CTFirstOrder) Reset() { f.x, f.u = 0, 0 }

// NewRCHighpass builds the series-C coupling network H(s) = s/(s + w0) with
// corner frequency cornerHz — the inter-stage DC block of the receiver.
func NewRCHighpass(cornerHz, sampleRateHz float64) (*CTFirstOrder, error) {
	if cornerHz <= 0 {
		return nil, fmt.Errorf("analog: RC corner %g Hz", cornerHz)
	}
	w0 := 2 * math.Pi * cornerHz
	return NewCTFirstOrder(0, 1, w0, sampleRateHz)
}
