// Package channel models the radio channel between transmitter and
// receiver: additive white Gaussian noise, frequency-selective Rayleigh
// multipath fading, static gain/path loss, carrier frequency offset, and the
// composition of adjacent-channel interferers on an oversampled baseband
// grid (paper §4.1: the transmitter is duplicated and its OFDM signal
// shifted by 20 MHz; the baseband is oversampled to satisfy the sampling
// theorem).
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"wlansim/internal/dsp"
	"wlansim/internal/randutil"
	"wlansim/internal/units"
)

// AWGN is a streaming white Gaussian noise source with a fixed per-sample
// noise power (variance split equally between I and Q). It draws from the
// concrete randutil generator — bit-identical to math/rand on the same seed,
// with the register step inlined into the per-sample ziggurat draw.
type AWGN struct {
	sigma float64 // per-dimension standard deviation
	rng   *randutil.Rand
}

// NewAWGN creates a noise source with total noise power powerW per complex
// sample and the given deterministic seed.
func NewAWGN(powerW float64, seed int64) *AWGN {
	if powerW < 0 {
		powerW = 0
	}
	return &AWGN{sigma: math.Sqrt(powerW / 2), rng: randutil.NewRandDirect(seed)}
}

// AWGNFrom creates a noise source with total noise power powerW per complex
// sample that draws from an externally owned generator instead of seeding its
// own. Callers that re-draw noise per packet (the SNR sweeps' stage-split
// pipeline) keep one long-lived stream and rewind it with Mark/Rewind,
// avoiding a costly re-seed per source.
func AWGNFrom(powerW float64, rng *randutil.Rand) *AWGN {
	if powerW < 0 {
		powerW = 0
	}
	return &AWGN{sigma: math.Sqrt(powerW / 2), rng: rng}
}

// AddTo adds noise to x in place and returns x. The draws are materialized
// chunk-wise through the generator's inlined-fast-path fill, a real and
// then an imaginary draw per sample, each scaled by the per-component sigma.
func (a *AWGN) AddTo(x []complex128) []complex128 {
	const chunk = 256
	var re, im [chunk]float64
	sig := a.sigma
	for off := 0; off < len(x); off += chunk {
		seg := x[off:]
		if len(seg) > chunk {
			seg = seg[:chunk]
		}
		n := len(seg)
		a.rng.FillNormPairs(re[:n], im[:n])
		for i := range seg {
			seg[i] += complex(re[i]*sig, im[i]*sig)
		}
	}
	return x
}

// AddNoiseSNR adds white Gaussian noise to x in place so that the resulting
// signal-to-noise ratio (measured against the current mean power of x)
// equals snrDB. It returns the applied noise power in watts.
func AddNoiseSNR(x []complex128, snrDB float64, seed int64) float64 {
	p := units.MeanPower(x)
	if p <= 0 {
		return 0
	}
	n := p / units.DBToLinear(snrDB)
	NewAWGN(n, seed).AddTo(x)
	return n
}

// Multipath is a static frequency-selective channel realized as a complex
// tapped delay line. Taps persist across frames (block fading).
type Multipath struct {
	taps  []complex128
	delay []complex128
	pos   int
}

// NewMultipath creates a channel with the given complex tap gains
// (taps[0] is the direct path).
func NewMultipath(taps []complex128) (*Multipath, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("channel: multipath needs at least one tap")
	}
	t := make([]complex128, len(taps))
	copy(t, taps)
	return &Multipath{taps: t, delay: make([]complex128, len(taps))}, nil
}

// NewRayleighChannel draws a random Rayleigh multipath realization with an
// exponential power delay profile: nTaps taps whose powers decay with the
// given rmsDelaySamples, normalized to unit total power. Tap 0 keeps a
// deterministic unit-energy share so short channels remain well conditioned.
func NewRayleighChannel(nTaps int, rmsDelaySamples float64, seed int64) (*Multipath, error) {
	if nTaps < 1 {
		return nil, fmt.Errorf("channel: nTaps %d < 1", nTaps)
	}
	if rmsDelaySamples <= 0 {
		rmsDelaySamples = 1
	}
	rng := rand.New(rand.NewSource(seed))
	taps := make([]complex128, nTaps)
	var total float64
	for i := range taps {
		p := math.Exp(-float64(i) / rmsDelaySamples)
		s := math.Sqrt(p / 2)
		taps[i] = complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
		total += real(taps[i])*real(taps[i]) + imag(taps[i])*imag(taps[i])
	}
	if total <= 0 {
		taps[0] = 1
		total = 1
	}
	g := complex(1/math.Sqrt(total), 0)
	for i := range taps {
		taps[i] *= g
	}
	return NewMultipath(taps)
}

// Reset clears the delay line.
func (m *Multipath) Reset() {
	for i := range m.delay {
		m.delay[i] = 0
	}
	m.pos = 0
}

// Process convolves x with the channel taps in place and returns x. State
// persists across frames.
func (m *Multipath) Process(x []complex128) []complex128 {
	for i, v := range x {
		m.delay[m.pos] = v
		var acc complex128
		idx := m.pos
		for _, t := range m.taps {
			acc += m.delay[idx] * t
			idx--
			if idx < 0 {
				idx = len(m.delay) - 1
			}
		}
		m.pos++
		if m.pos == len(m.delay) {
			m.pos = 0
		}
		x[i] = acc
	}
	return x
}

// CFO applies a static carrier frequency offset (in Hz at the given sample
// rate) plus an initial phase, modeling oscillator mismatch between
// transmitter and receiver.
type CFO struct {
	osc *dsp.Oscillator
}

// NewCFO creates a frequency offset of offsetHz at sample rate fsHz.
func NewCFO(offsetHz, fsHz, phase float64) *CFO {
	return &CFO{osc: dsp.NewOscillator(offsetHz/fsHz, phase)}
}

// Process rotates x in place and returns x.
func (c *CFO) Process(x []complex128) []complex128 { return c.osc.MixInto(x) }

// SampleClockOffset models the sampling-clock mismatch between transmitter
// and receiver DACs/ADCs: the waveform is fractionally resampled by
// (1 + ppm*1e-6). Clause 17 allows +-20 ppm per station.
type SampleClockOffset struct {
	res *dsp.FractionalResampler
	// PPM is the configured offset in parts per million.
	PPM float64
}

// NewSampleClockOffset creates the impairment for the given offset in ppm.
func NewSampleClockOffset(ppm float64) (*SampleClockOffset, error) {
	r, err := dsp.NewFractionalResampler(1 + ppm*1e-6)
	if err != nil {
		return nil, err
	}
	return &SampleClockOffset{res: r, PPM: ppm}, nil
}

// Process returns the resampled waveform (length changes by ~ppm).
func (s *SampleClockOffset) Process(x []complex128) []complex128 {
	return s.res.Process(x)
}

// Reset clears the resampler state.
func (s *SampleClockOffset) Reset() { s.res.Reset() }
