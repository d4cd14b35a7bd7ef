package channel

import (
	"fmt"
	"math"
	"math/rand"
)

// FadingChannel is a time-varying frequency-selective Rayleigh channel: a
// tapped delay line whose complex tap gains evolve according to a
// sum-of-sinusoids (Jakes) Doppler model. With DopplerHz = 0 it degenerates
// to the static block-fading Multipath model.
type FadingChannel struct {
	nTaps int
	// per-tap Jakes oscillators
	freqs  [][]float64 // normalized Doppler frequency per oscillator
	phases [][]float64
	gains  []float64 // rms gain per tap (exponential profile)
	t      float64
	delay  []complex128
	pos    int
	taps   []complex128 // current realization (updated every sample)
}

// jakesOscillators is the number of sinusoids per tap.
const jakesOscillators = 8

// NewFadingChannel creates a channel with nTaps taps, an exponential power
// delay profile with the given rms constant (in samples), a maximum Doppler
// shift dopplerHz at sample rate fsHz, and a deterministic seed. Total mean
// tap power is normalized to one.
func NewFadingChannel(nTaps int, rmsDelaySamples, dopplerHz, fsHz float64, seed int64) (*FadingChannel, error) {
	if nTaps < 1 {
		return nil, fmt.Errorf("channel: nTaps %d < 1", nTaps)
	}
	if fsHz <= 0 {
		return nil, fmt.Errorf("channel: sample rate %g", fsHz)
	}
	if dopplerHz < 0 {
		return nil, fmt.Errorf("channel: negative Doppler %g", dopplerHz)
	}
	if rmsDelaySamples <= 0 {
		rmsDelaySamples = 1
	}
	rng := rand.New(rand.NewSource(seed))
	f := &FadingChannel{
		nTaps: nTaps,
		delay: make([]complex128, nTaps),
		taps:  make([]complex128, nTaps),
	}
	var total float64
	f.gains = make([]float64, nTaps)
	for i := range f.gains {
		p := math.Exp(-float64(i) / rmsDelaySamples)
		f.gains[i] = math.Sqrt(p)
		total += p
	}
	norm := 1 / math.Sqrt(total)
	for i := range f.gains {
		f.gains[i] *= norm
	}
	nu := dopplerHz / fsHz
	f.freqs = make([][]float64, nTaps)
	f.phases = make([][]float64, nTaps)
	for i := 0; i < nTaps; i++ {
		f.freqs[i] = make([]float64, jakesOscillators)
		f.phases[i] = make([]float64, jakesOscillators)
		for k := 0; k < jakesOscillators; k++ {
			// Classic Jakes: arrival angles uniform on the circle give
			// Doppler shifts nu*cos(theta).
			theta := 2 * math.Pi * (float64(k) + rng.Float64()) / jakesOscillators
			f.freqs[i][k] = nu * math.Cos(theta)
			f.phases[i][k] = 2 * math.Pi * rng.Float64()
		}
	}
	f.updateTaps()
	return f, nil
}

// updateTaps evaluates the Jakes sum at the current time.
func (f *FadingChannel) updateTaps() {
	scale := 1 / math.Sqrt(jakesOscillators)
	for i := range f.taps {
		var re, im float64
		for k := 0; k < jakesOscillators; k++ {
			ph := 2*math.Pi*f.freqs[i][k]*f.t + f.phases[i][k]
			re += math.Cos(ph)
			im += math.Sin(ph)
		}
		f.taps[i] = complex(f.gains[i]*scale*re, f.gains[i]*scale*im)
	}
}

// Reset restarts time and clears the delay line (the Doppler trajectory
// replays identically).
func (f *FadingChannel) Reset() {
	f.t = 0
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
	f.updateTaps()
}

// Process convolves x with the evolving channel in place and returns x.
func (f *FadingChannel) Process(x []complex128) []complex128 {
	for i, v := range x {
		f.updateTaps()
		f.t++
		f.delay[f.pos] = v
		var acc complex128
		idx := f.pos
		for _, tap := range f.taps {
			acc += f.delay[idx] * tap
			idx--
			if idx < 0 {
				idx = len(f.delay) - 1
			}
		}
		f.pos++
		if f.pos == len(f.delay) {
			f.pos = 0
		}
		x[i] = acc
	}
	return x
}
