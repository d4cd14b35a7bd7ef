package dsp

import "fmt"

// FractionalResampler converts the sample rate by an arbitrary real ratio
// using Catmull-Rom cubic interpolation (a Farrow structure). It models
// sampling-clock offsets between transmitter and receiver as well as
// general non-integer rate changes. State persists across frames.
type FractionalResampler struct {
	ratio float64 // output rate / input rate
	step  float64 // input samples consumed per output sample (1/ratio)
	// hist holds the last three input samples (x[n-3..n-1] relative to the
	// next incoming sample).
	hist [3]complex128
	// mu is the fractional read position within the current interpolation
	// interval [hist[1], hist[2]].
	mu      float64
	started bool
}

// NewFractionalResampler creates a resampler with the given output/input
// rate ratio (must be positive; values near 1 model ppm-scale clock
// offsets).
func NewFractionalResampler(ratio float64) (*FractionalResampler, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("dsp: resample ratio %g must be positive", ratio)
	}
	return &FractionalResampler{ratio: ratio, step: 1 / ratio}, nil
}

// Reset clears the interpolation state.
func (r *FractionalResampler) Reset() {
	r.hist = [3]complex128{}
	r.mu = 0
	r.started = false
}

// catmullRom interpolates between p1 and p2 at fraction mu with neighbors
// p0 and p3.
func catmullRom(p0, p1, p2, p3 complex128, mu float64) complex128 {
	m := complex(mu, 0)
	m2 := m * m
	m3 := m2 * m
	a := -0.5*p0 + 1.5*p1 - 1.5*p2 + 0.5*p3
	b := p0 - 2.5*p1 + 2*p2 - 0.5*p3
	c := -0.5*p0 + 0.5*p2
	return a*m3 + b*m2 + c*m + p1
}

// Process consumes a frame and returns the resampled output (length varies
// by ~ratio*len(in); boundaries carry over between calls).
func (r *FractionalResampler) Process(in []complex128) []complex128 {
	out := make([]complex128, 0, int(float64(len(in))*r.ratio)+2)
	for _, x := range in {
		if !r.started {
			// Prime the history with the first sample replicated so the
			// stream starts without a transient spike.
			r.hist = [3]complex128{x, x, x}
			r.started = true
			continue
		}
		// With the new sample x, the interpolation interval is
		// [hist[2], x] with neighbors hist[1] and (next sample); using
		// hist[0..2] and x gives the interval [hist[1], hist[2]].
		for r.mu < 1 {
			out = append(out, catmullRom(r.hist[0], r.hist[1], r.hist[2], x, r.mu))
			r.mu += r.step
		}
		r.mu -= 1
		r.hist[0], r.hist[1], r.hist[2] = r.hist[1], r.hist[2], x
	}
	return out
}
