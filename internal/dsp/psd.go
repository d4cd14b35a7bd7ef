package dsp

import (
	"fmt"
	"math"

	"wlansim/internal/units"
)

// PSD is a two-sided power spectral density estimate centered on 0 Hz.
type PSD struct {
	// FreqHz[i] is the frequency of bin i relative to the center (baseband)
	// frequency; bins run from -fs/2 to +fs/2.
	FreqHz []float64
	// DensityWPerHz[i] is the PSD estimate in watts per hertz (1 ohm).
	DensityWPerHz []float64
	// SampleRateHz is the sample rate the estimate was made at.
	SampleRateHz float64
}

// DBmPerHz returns the density of bin i in dBm/Hz, or -Inf for an empty bin.
func (p *PSD) DBmPerHz(i int) float64 {
	d := p.DensityWPerHz[i]
	if d <= 0 {
		return math.Inf(-1)
	}
	return units.WattsToDBm(d)
}

// BandPowerW integrates the PSD between two frequencies (Hz, relative to
// center) and returns the power in watts.
func (p *PSD) BandPowerW(lo, hi float64) float64 {
	if len(p.FreqHz) < 2 {
		return 0
	}
	df := p.FreqHz[1] - p.FreqHz[0]
	var sum float64
	for i, f := range p.FreqHz {
		if f >= lo && f < hi {
			sum += p.DensityWPerHz[i] * df
		}
	}
	return sum
}

// WelchPSD estimates the two-sided PSD of x sampled at sampleRateHz using
// Welch's method with 50% overlapped segments of length segLen (a power of
// two) tapered by window w. The estimate is centered (FFT-shifted) so that
// index segLen/2 corresponds to 0 Hz.
func WelchPSD(x []complex128, sampleRateHz float64, segLen int, w Window) (*PSD, error) {
	if segLen < 2 || segLen&(segLen-1) != 0 {
		return nil, fmt.Errorf("dsp: Welch segment length %d is not a power of two >= 2", segLen)
	}
	if len(x) < segLen {
		return nil, fmt.Errorf("dsp: signal length %d shorter than segment %d", len(x), segLen)
	}
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("dsp: sample rate %g must be positive", sampleRateHz)
	}
	plan, err := NewFFTPlan(segLen)
	if err != nil {
		return nil, err
	}
	win := w.Coefficients(segLen)
	wpg := w.PowerGain(segLen)

	acc := make([]float64, segLen)
	buf := make([]complex128, segLen)
	hop := segLen / 2
	segments := 0
	for start := 0; start+segLen <= len(x); start += hop {
		for i := 0; i < segLen; i++ {
			buf[i] = x[start+i] * complex(win[i], 0)
		}
		plan.Forward(buf)
		for i, v := range buf {
			acc[i] += real(v)*real(v) + imag(v)*imag(v)
		}
		segments++
	}
	// Periodogram normalization: P[k] = |X[k]|^2 / (fs * N * windowPowerGain).
	norm := 1 / (sampleRateHz * float64(segLen) * wpg * float64(segments))
	shifted := make([]float64, segLen)
	for i := range acc {
		// FFT-shift: move bin 0 to the middle.
		j := (i + segLen/2) % segLen
		shifted[j] = acc[i] * norm
	}
	freq := make([]float64, segLen)
	for i := range freq {
		freq[i] = (float64(i) - float64(segLen)/2) * sampleRateHz / float64(segLen)
	}
	return &PSD{FreqHz: freq, DensityWPerHz: shifted, SampleRateHz: sampleRateHz}, nil
}
