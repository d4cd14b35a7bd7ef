package rf

import (
	"fmt"
	"math/cmplx"
	"sort"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// This file implements the paper's "other solution" (§4, ref [6] — the
// Moult/Chen K-model): extract a black-box behavioral model of the complete
// RF subsystem from the detailed (e.g. continuous-time co-simulated)
// receiver, and instantiate that cheap black box in the system-level
// simulation instead of the expensive detailed model.
//
// The extracted KModel consists of
//   - a static AM/AM + AM/PM lookup table measured with a midband power
//     sweep (captures the front end's compression), applied first, and
//   - a complex FIR filter fitted to the small-signal frequency response
//     (captures channel filtering, droop and group delay).

// KModelConfig controls the extraction.
type KModelConfig struct {
	// SampleRateHz is the black box's I/O rate (20 MHz for the receivers
	// here; extraction probes the device at this rate).
	SampleRateHz float64
	// FilterTaps is the FIR length fitted to the frequency response (a
	// power of two; default 64).
	FilterTaps int
	// ProbeDBm is the small-signal level for the response sweep (default
	// -70 dBm).
	ProbeDBm float64
	// SweepFromDBm/SweepToDBm/SweepStepDB bound the AM/AM power sweep
	// (defaults -90..-10 in 2 dB steps).
	SweepFromDBm float64
	SweepToDBm   float64
	SweepStepDB  float64
	// SettleSamples are discarded before each measurement (default 2048).
	SettleSamples int
	// MeasureSamples are averaged per measurement (default 2048).
	MeasureSamples int
}

// DefaultKModelConfig returns extraction settings for a 20 MHz receiver.
func DefaultKModelConfig() KModelConfig {
	return KModelConfig{
		SampleRateHz:   20e6,
		FilterTaps:     64,
		ProbeDBm:       -70,
		SweepFromDBm:   -90,
		SweepToDBm:     -10,
		SweepStepDB:    2,
		SettleSamples:  2048,
		MeasureSamples: 2048,
	}
}

// amamPoint is one sample of the measured envelope transfer curve.
type amamPoint struct {
	inAmp   float64
	relGain complex128 // complex gain relative to small-signal
}

// KModel is the extracted black-box front end. It implements FrontEnd and
// runs orders of magnitude faster than the detailed model it was extracted
// from.
type KModel struct {
	fir  *dsp.ComplexFIR
	amam []amamPoint
	// SmallSignalGainDB records the measured midband gain for reporting.
	SmallSignalGainDB float64
}

var _ FrontEnd = (*KModel)(nil)

// measureComplexGain drives the device with a tone at normalized frequency
// nu and peak amplitude amp and returns the steady-state complex gain.
func measureComplexGain(fe FrontEnd, nu, amp float64, settle, measure int) complex128 {
	fe.Reset()
	n := settle + measure
	in := make([]complex128, n)
	osc := dsp.NewOscillator(nu, 0)
	for i := range in {
		in[i] = complex(amp, 0) * osc.Next()
	}
	out := fe.Process(in)
	// Correlate against the reference tone over the tail.
	ref := dsp.NewOscillator(nu, 0)
	var acc complex128
	count := 0
	start := len(out) - measure
	if start < 0 {
		start = 0
	}
	for i := 0; i < len(out); i++ {
		r := ref.Next()
		if i >= start {
			acc += out[i] * cmplx.Conj(r)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return acc / complex(float64(count)*amp, 0)
}

// ExtractKModel measures the detailed front end and builds its black-box
// equivalent. The device must be deterministic during extraction: disable
// its noise sources and phase noise first (extraction of a noisy device
// yields a noisy estimate, exactly as with the real K-model flow).
func ExtractKModel(fe FrontEnd, cfg KModelConfig) (*KModel, error) {
	if cfg.SampleRateHz <= 0 {
		return nil, fmt.Errorf("rf: kmodel sample rate %g", cfg.SampleRateHz)
	}
	taps := cfg.FilterTaps
	if taps == 0 {
		taps = 64
	}
	if taps < 8 || taps&(taps-1) != 0 {
		return nil, fmt.Errorf("rf: kmodel filter taps %d not a power of two >= 8", taps)
	}
	settle := cfg.SettleSamples
	if settle <= 0 {
		settle = 2048
	}
	measure := cfg.MeasureSamples
	if measure <= 0 {
		measure = 2048
	}
	probe := cfg.ProbeDBm
	if probe == 0 {
		probe = -70
	}
	probeAmp := units.DBmToAmplitude(probe)

	// 1. Small-signal frequency response on the FIR's own bin grid.
	h := make([]complex128, taps)
	for k := 0; k < taps; k++ {
		nu := float64(k) / float64(taps)
		if nu >= 0.5 {
			nu -= 1 // negative frequencies
		}
		h[k] = measureComplexGain(fe, nu, probeAmp, settle, measure)
	}
	fir, err := dsp.FIRFromFrequencyResponse(h)
	if err != nil {
		return nil, err
	}

	// 2. Midband AM/AM + AM/PM sweep.
	from, to, step := cfg.SweepFromDBm, cfg.SweepToDBm, cfg.SweepStepDB
	if step <= 0 {
		step = 2
	}
	if from == 0 && to == 0 {
		from, to = -90, -10
	}
	if to <= from {
		return nil, fmt.Errorf("rf: kmodel sweep bounds [%g, %g]", from, to)
	}
	const midbandNu = 0.05 // 1 MHz at 20 MHz: inside every sensible channel filter
	g0 := measureComplexGain(fe, midbandNu, probeAmp, settle, measure)
	if cmplx.Abs(g0) == 0 {
		return nil, fmt.Errorf("rf: device shows no small-signal gain")
	}
	var amam []amamPoint
	for p := from; p <= to+1e-9; p += step {
		amp := units.DBmToAmplitude(p)
		g := measureComplexGain(fe, midbandNu, amp, settle, measure)
		amam = append(amam, amamPoint{inAmp: amp, relGain: g / g0})
	}
	sort.Slice(amam, func(i, j int) bool { return amam[i].inAmp < amam[j].inAmp })

	return &KModel{
		fir:               fir,
		amam:              amam,
		SmallSignalGainDB: units.VoltageGainToDB(cmplx.Abs(g0)),
	}, nil
}

// relGainAt interpolates the relative envelope gain at input amplitude a.
func (k *KModel) relGainAt(a float64) complex128 {
	pts := k.amam
	if len(pts) == 0 {
		return 1
	}
	if a <= pts[0].inAmp {
		return pts[0].relGain // small-signal region: flat
	}
	if a >= pts[len(pts)-1].inAmp {
		// Beyond the sweep: hold the output envelope at the last measured
		// level (saturation), preserving phase behavior.
		last := pts[len(pts)-1]
		return last.relGain * complex(last.inAmp/a, 0)
	}
	i := sort.Search(len(pts), func(j int) bool { return pts[j].inAmp >= a })
	lo, hi := pts[i-1], pts[i]
	frac := (a - lo.inAmp) / (hi.inAmp - lo.inAmp)
	return lo.relGain + complex(frac, 0)*(hi.relGain-lo.relGain)
}

// Process runs the black box: static nonlinearity then the fitted linear
// response.
func (k *KModel) Process(x []complex128) []complex128 {
	for i, v := range x {
		a := cmplx.Abs(v)
		if a > 0 {
			x[i] = v * k.relGainAt(a)
		}
	}
	return k.fir.Process(x)
}

// Reset clears the filter state.
func (k *KModel) Reset() { k.fir.Reset() }
