package analog

import (
	"fmt"
	"math"

	"wlansim/internal/units"
)

// This file provides tone test benches for continuous-time stages — the
// solver-side equivalent of the SpectreRF Periodic Steady State
// measurements (§3.2): compression point and intercept point of the
// passband LNA, and frequency response of the analog filters.

// CTBench drives continuous-time stages with real tone stimuli. Stimulus
// frequencies are snapped onto an exact DFT grid so tone and intermodulation
// powers can be read leakage-free from single bins.
type CTBench struct {
	// SampleRateHz is the solver rate of the stage under test.
	SampleRateHz float64
	// CaptureLength is the number of samples per capture (power of two,
	// default 32768).
	CaptureLength int
}

// NewCTBench returns a bench at the given solver rate.
func NewCTBench(sampleRateHz float64) *CTBench {
	return &CTBench{SampleRateHz: sampleRateHz, CaptureLength: 32768}
}

func (b *CTBench) capture() int {
	if b.CaptureLength >= 64 && b.CaptureLength&(b.CaptureLength-1) == 0 {
		return b.CaptureLength
	}
	return 32768
}

// snapBin converts a frequency to the nearest DFT bin of the capture.
func (b *CTBench) snapBin(freqHz float64) (int, error) {
	if b.SampleRateHz <= 0 {
		return 0, fmt.Errorf("analog: bench needs a sample rate")
	}
	n := b.capture()
	bin := int(math.Round(freqHz / b.SampleRateHz * float64(n)))
	if bin < 1 || bin >= n/2 {
		return 0, fmt.Errorf("analog: frequency %g Hz outside the bench grid", freqHz)
	}
	return bin, nil
}

// binPower drives the stage with real cosines at exact bins and returns the
// output tone power (dBm) at measureBin. One capture length of transient is
// discarded.
func (b *CTBench) binPower(s Stage, bins []int, peaks []float64, measureBin int) float64 {
	n := b.capture()
	s.Reset()
	stim := func(i int) float64 {
		var v float64
		for t, bin := range bins {
			v += peaks[t] * math.Cos(2*math.Pi*float64(bin)*float64(i)/float64(n))
		}
		return v
	}
	for i := 0; i < n; i++ {
		s.Step(stim(i))
	}
	var re, im float64
	for i := 0; i < n; i++ {
		v := s.Step(stim(i)) // stimulus is n-periodic: stim(n+i) == stim(i)
		ph := 2 * math.Pi * float64(measureBin) * float64(i) / float64(n)
		re += v * math.Cos(ph)
		im -= v * math.Sin(ph)
	}
	re /= float64(n)
	im /= float64(n)
	// Peak amplitude of the real tone is twice the one-sided bin magnitude;
	// tone power = peak^2/2.
	peak := 2 * math.Hypot(re, im)
	return units.WattsToDBm(peak * peak / 2)
}

// MeasureGain returns the stage's power gain (dB) for a tone at freqHz with
// the given input tone power (dBm).
func (b *CTBench) MeasureGain(s Stage, freqHz, pinDBm float64) (float64, error) {
	bin, err := b.snapBin(freqHz)
	if err != nil {
		return 0, err
	}
	peak := units.DBmToAmplitude(pinDBm) * math.Sqrt2
	pout := b.binPower(s, []int{bin}, []float64{peak}, bin)
	return pout - pinDBm, nil
}

// MeasureP1dB sweeps the input tone power until the gain compresses by 1 dB
// and returns the input-referred compression point (dBm).
func (b *CTBench) MeasureP1dB(s Stage, freqHz, stepDB float64) (float64, error) {
	if stepDB <= 0 {
		stepDB = 0.25
	}
	g0, err := b.MeasureGain(s, freqHz, -70)
	if err != nil {
		return 0, err
	}
	prev := -70.0
	gPrev := g0
	for pin := -70 + stepDB; pin <= 20; pin += stepDB {
		g, err := b.MeasureGain(s, freqHz, pin)
		if err != nil {
			return 0, err
		}
		if g0-g >= 1 {
			frac := (g0 - 1 - gPrev) / (g - gPrev)
			return prev + frac*(pin-prev), nil
		}
		prev, gPrev = pin, g
	}
	return 0, fmt.Errorf("analog: no compression found up to +20 dBm")
}

// MeasureIIP3 runs a passband two-tone test around centerHz with the given
// per-tone power and spacing, extrapolating the input-referred third-order
// intercept point: IIP3 = Pin + (Pfund - Pim3)/2.
func (b *CTBench) MeasureIIP3(s Stage, centerHz, spacingHz, pinDBm float64) (float64, error) {
	b1, err := b.snapBin(centerHz - spacingHz/2)
	if err != nil {
		return 0, err
	}
	b2, err := b.snapBin(centerHz + spacingHz/2)
	if err != nil {
		return 0, err
	}
	if b1 == b2 {
		return 0, fmt.Errorf("analog: tone spacing below the bench resolution")
	}
	im3 := 2*b1 - b2
	if im3 < 1 {
		return 0, fmt.Errorf("analog: IM3 bin %d not measurable", im3)
	}
	peak := units.DBmToAmplitude(pinDBm) * math.Sqrt2
	pf := b.binPower(s, []int{b1, b2}, []float64{peak, peak}, b1)
	pi := b.binPower(s, []int{b1, b2}, []float64{peak, peak}, im3)
	return pinDBm + (pf-pi)/2, nil
}
