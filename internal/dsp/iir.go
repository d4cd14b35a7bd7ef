package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/units"
)

// Biquad is a second-order IIR section in direct form II transposed with
// complex streaming state. Coefficients follow the convention
//
//	y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
	s1, s2     complex128
}

// Process filters a frame in place through the section. It performs exactly
// the per-sample arithmetic of ProcessSample, but keeps the coefficients and
// streaming state in locals across the frame so the compiler can register-
// allocate them — the cascade processes section-major (whole frame per
// section), which is bit-identical to sample-major order because a sample's
// path through a section depends only on earlier samples through that section.
func (q *Biquad) Process(x []complex128) []complex128 {
	b0, b1, b2 := q.B0, q.B1, q.B2
	a1, a2 := q.A1, q.A2
	s1r, s1i := real(q.s1), imag(q.s1)
	s2r, s2i := real(q.s2), imag(q.s2)
	for i, v := range x {
		xr, xi := real(v), imag(v)
		yr := b0*xr + s1r
		yi := b0*xi + s1i
		s1r = b1*xr - a1*yr + s2r
		s1i = b1*xi - a1*yi + s2i
		s2r = b2*xr - a2*yr
		s2i = b2*xi - a2*yi
		x[i] = complex(yr, yi)
	}
	q.s1 = complex(s1r, s1i)
	q.s2 = complex(s2r, s2i)
	return x
}

// Reset clears the section state.
func (q *Biquad) Reset() { q.s1, q.s2 = 0, 0 }

// Response evaluates the section's transfer function at z = exp(2*pi*i*nu).
func (q *Biquad) Response(nu float64) complex128 {
	z1 := cmplx.Exp(complex(0, -2*math.Pi*nu)) // z^-1
	z2 := z1 * z1
	num := complex(q.B0, 0) + complex(q.B1, 0)*z1 + complex(q.B2, 0)*z2
	den := 1 + complex(q.A1, 0)*z1 + complex(q.A2, 0)*z2
	return num / den
}

// IIR is a cascade of biquad sections with an overall gain, representing a
// classical recursive filter. The zero value is an identity filter.
type IIR struct {
	Gain     float64
	Sections []Biquad
}

// NewIIR builds a cascade from sections with the given overall gain.
func NewIIR(gain float64, sections []Biquad) *IIR {
	s := make([]Biquad, len(sections))
	copy(s, sections)
	return &IIR{Gain: gain, Sections: s}
}

// Reset clears all section states.
func (f *IIR) Reset() {
	for i := range f.Sections {
		f.Sections[i].Reset()
	}
}

// Process filters a frame in place and returns it. The cascade runs
// section-major (each biquad over the whole frame) rather than sample-major;
// the per-sample arithmetic is identical, so the output matches a
// ProcessSample loop bit for bit while the section state stays in registers.
func (f *IIR) Process(x []complex128) []complex128 {
	g := f.Gain
	if g == 0 {
		g = 1
	}
	//lint:ignore floateq multiplying by exactly 1.0 is a bit-exact identity, so the gain pass can be skipped
	if g != 1 {
		for i, v := range x {
			x[i] = complex(g*real(v), g*imag(v))
		}
	}
	for i := range f.Sections {
		f.Sections[i].Process(x)
	}
	return x
}

// Response evaluates the cascade's transfer function at the normalized
// frequency nu (cycles per sample).
func (f *IIR) Response(nu float64) complex128 {
	g := f.Gain
	if g == 0 {
		g = 1
	}
	h := complex(g, 0)
	for i := range f.Sections {
		h *= f.Sections[i].Response(nu)
	}
	return h
}

// MagnitudeDB returns the magnitude response in dB at normalized frequency nu.
func (f *IIR) MagnitudeDB(nu float64) float64 {
	m := cmplx.Abs(f.Response(nu))
	if m <= 0 {
		return math.Inf(-1)
	}
	return units.VoltageGainToDB(m)
}

// FilterShape selects the passband geometry of an IIR design.
type FilterShape int

// Supported shapes.
const (
	Lowpass FilterShape = iota
	Highpass
)

// Chebyshev1AnalogPoles returns the normalized analog poles and ripple
// factor epsilon of a type-I Chebyshev prototype, for use by
// continuous-time solvers.
func Chebyshev1AnalogPoles(order int, rippleDB float64) ([]complex128, float64) {
	return chebyshev1Poles(order, rippleDB)
}

// chebyshev1Poles returns the normalized analog poles for a type-I Chebyshev
// prototype with the given passband ripple in dB, plus the ripple factor.
func chebyshev1Poles(order int, rippleDB float64) ([]complex128, float64) {
	eps := math.Sqrt(units.DBToLinear(rippleDB) - 1)
	mu := math.Asinh(1/eps) / float64(order)
	poles := make([]complex128, order)
	for k := 1; k <= order; k++ {
		theta := math.Pi * float64(2*k-1) / float64(2*order)
		poles[k-1] = complex(-math.Sinh(mu)*math.Sin(theta), math.Cosh(mu)*math.Cos(theta))
	}
	return poles, eps
}

// designFromPoles converts normalized analog prototype poles to a digital IIR
// via frequency transform and the bilinear transform. cutoff is the passband
// edge as a fraction of the sample rate. passbandGain is the desired linear
// magnitude at the passband reference point (DC for lowpass, Nyquist for
// highpass).
func designFromPoles(analog []complex128, shape FilterShape, cutoff, passbandGain float64) (*IIR, error) {
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: IIR cutoff %g outside (0, 0.5)", cutoff)
	}
	warp := math.Tan(math.Pi * cutoff)
	zPoles := make([]complex128, len(analog))
	for i, p := range analog {
		var ps complex128
		switch shape {
		case Lowpass:
			ps = p * complex(warp, 0)
		case Highpass:
			ps = complex(warp, 0) / p
		default:
			return nil, fmt.Errorf("dsp: unsupported filter shape %d", shape)
		}
		zPoles[i] = (1 + ps) / (1 - ps)
	}
	// All zeros sit at z=-1 (lowpass) or z=+1 (highpass).
	zero := -1.0
	if shape == Highpass {
		zero = 1.0
	}

	// Pair complex-conjugate poles into biquads. The prototype pole list
	// contains conjugates in mirrored positions (k and order-1-k).
	var sections []Biquad
	n := len(zPoles)
	for k := 0; k < n/2; k++ {
		p := zPoles[k]
		// (1 - p z^-1)(1 - conj(p) z^-1) = 1 - 2 Re(p) z^-1 + |p|^2 z^-2
		sections = append(sections, Biquad{
			B0: 1, B1: -2 * zero, B2: 1,
			A1: -2 * real(p), A2: real(p)*real(p) + imag(p)*imag(p),
		})
	}
	if n%2 == 1 {
		p := zPoles[n/2] // the real pole is at the middle index
		sections = append(sections, Biquad{
			B0: 1, B1: -zero, B2: 0,
			A1: -real(p), A2: 0,
		})
	}

	f := NewIIR(1, sections)
	ref := 0.0
	if shape == Highpass {
		ref = 0.5
	}
	h := cmplx.Abs(f.Response(ref))
	if h <= 0 {
		return nil, fmt.Errorf("dsp: degenerate IIR design (zero reference gain)")
	}
	f.Gain = passbandGain / h
	return f, nil
}

// DesignChebyshev1 designs an order-n type-I Chebyshev filter with the given
// passband ripple in dB and passband edge at cutoff (fraction of the sample
// rate). The maximum passband gain is unity; for even orders the reference
// (DC or Nyquist) gain is 1/sqrt(1+eps^2), which places the ripple band at
// [-ripple, 0] dB as in classical designs.
func DesignChebyshev1(order int, shape FilterShape, cutoff, rippleDB float64) (*IIR, error) {
	if order < 1 {
		return nil, fmt.Errorf("dsp: filter order %d < 1", order)
	}
	if rippleDB <= 0 {
		return nil, fmt.Errorf("dsp: Chebyshev ripple %g dB must be positive", rippleDB)
	}
	poles, eps := chebyshev1Poles(order, rippleDB)
	gain := 1.0
	if order%2 == 0 {
		gain = 1 / math.Sqrt(1+eps*eps)
	}
	return designFromPoles(poles, shape, cutoff, gain)
}

// DesignDCBlock returns a one-pole high-pass DC blocker
//
//	y[n] = x[n] - x[n-1] + r y[n-1]
//
// with the -3 dB corner at approximately cutoff (fraction of the sample
// rate). It is the discrete analog of the series-capacitor coupling used
// between the two mixer stages of the double-conversion receiver.
func DesignDCBlock(cutoff float64) (*IIR, error) {
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: DC block cutoff %g outside (0, 0.5)", cutoff)
	}
	r := (1 - math.Sin(2*math.Pi*cutoff)) / math.Cos(2*math.Pi*cutoff)
	g := (1 + r) / 2 // unity gain at Nyquist
	return NewIIR(g, []Biquad{{B0: 1, B1: -1, A1: -r}}), nil
}
