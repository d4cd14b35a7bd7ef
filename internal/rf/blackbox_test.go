package rf_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wlansim/internal/analog"
	"wlansim/internal/dsp"
	"wlansim/internal/rf"
	"wlansim/internal/units"
)

// deterministicAnalogFE builds the detailed continuous-time receiver with
// all stochastic elements disabled, as required for K-model extraction.
func deterministicAnalogFE(t *testing.T) *analog.FrontEnd {
	t.Helper()
	cfg := analog.DefaultFrontEndConfig()
	cfg.EnableNoise = false
	cfg.LOLinewidthHz = 0
	cfg.SolverOversample = 16 // cheaper extraction; accuracy is unaffected
	fe, err := analog.NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

var (
	cachedKModel    *rf.KModel
	cachedKModelErr error
	kmodelOnce      sync.Once
)

// extractTestKModel performs the (expensive) extraction once per test run.
func extractTestKModel(t *testing.T) *rf.KModel {
	t.Helper()
	kmodelOnce.Do(func() {
		cfg := rf.DefaultKModelConfig()
		cfg.FilterTaps = 64
		cfg.SettleSamples = 1024
		cfg.MeasureSamples = 1024
		cfg.SweepStepDB = 4
		cachedKModel, cachedKModelErr = rf.ExtractKModel(deterministicAnalogFE(t), cfg)
	})
	if cachedKModelErr != nil {
		t.Fatal(cachedKModelErr)
	}
	return cachedKModel
}

func TestKModelExtractionValidation(t *testing.T) {
	fe := deterministicAnalogFE(t)
	cfg := rf.DefaultKModelConfig()
	cfg.SampleRateHz = 0
	if _, err := rf.ExtractKModel(fe, cfg); err == nil {
		t.Error("accepted zero sample rate")
	}
	cfg = rf.DefaultKModelConfig()
	cfg.FilterTaps = 37
	if _, err := rf.ExtractKModel(fe, cfg); err == nil {
		t.Error("accepted non-power-of-two taps")
	}
	cfg = rf.DefaultKModelConfig()
	cfg.SweepFromDBm = -10
	cfg.SweepToDBm = -40
	if _, err := rf.ExtractKModel(fe, cfg); err == nil {
		t.Error("accepted inverted sweep bounds")
	}
}

// toneGainDB measures the model's small-signal gain at freqHz: a -60 dBm
// tone through Process, read past the fitted filter's transient.
func toneGainDB(km *rf.KModel, freqHz, sampleRateHz float64) float64 {
	const n = 2048
	a := units.DBmToAmplitude(-60)
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(a, 2*math.Pi*freqHz/sampleRateHz*float64(i))
	}
	km.Reset()
	y := km.Process(x)
	km.Reset()
	return units.LinearToDB(units.MeanPower(y[n/2:]) / (a * a))
}

func TestKModelCapturesSmallSignalGain(t *testing.T) {
	km := extractTestKModel(t)
	// The analog line-up's nominal small-signal gain is 18 + 15 = 33 dB.
	if math.Abs(km.SmallSignalGainDB-33) > 1 {
		t.Errorf("extracted gain %v dB, want ~33", km.SmallSignalGainDB)
	}
	// The fitted linear response is flat in band and rolls off past the
	// 9.5 MHz channel edge.
	mid := toneGainDB(km, 1e6, 20e6)
	edge := toneGainDB(km, 9.8e6, 20e6)
	if math.Abs(mid-33) > 1.5 {
		t.Errorf("in-band fitted response %v dB", mid)
	}
	if mid-edge < 1 {
		t.Errorf("no roll-off at the channel edge: mid %v, edge %v", mid, edge)
	}
}

func TestKModelMatchesDetailedModelOnOFDM(t *testing.T) {
	km := extractTestKModel(t)
	fe := deterministicAnalogFE(t)

	// An OFDM-like multitone test signal at a linear drive level.
	rng := rand.New(rand.NewSource(60))
	n := 4096
	x := make([]complex128, n)
	for c := -20; c <= 20; c += 2 {
		if c == 0 {
			continue
		}
		ph := 2 * math.Pi * rng.Float64()
		for i := range x {
			x[i] += cmplx.Exp(complex(0, 2*math.Pi*float64(c)/64*float64(i)+ph))
		}
	}
	units.SetPowerDBm(x, -60)

	fe.Reset()
	detailed := fe.Process(dsp.Clone(x))
	km.Reset()
	black := km.Process(dsp.Clone(x))

	// Compare steady-state regions. The two models have different group
	// delays; align by peak cross-correlation over a +-16 sample window.
	bestLag, bestMag := 0, 0.0
	for lag := -16; lag <= 16; lag++ {
		var acc complex128
		for i := 1000; i < 3000; i++ {
			j := i + lag
			if j < 0 || j >= len(black) {
				continue
			}
			acc += detailed[i] * cmplx.Conj(black[j])
		}
		if m := cmplx.Abs(acc); m > bestMag {
			bestMag, bestLag = m, lag
		}
	}
	var errE, sigE float64
	var rot complex128
	// Estimate the residual constant phase between the models first.
	for i := 1000; i < 3000; i++ {
		rot += detailed[i] * cmplx.Conj(black[i+bestLag])
	}
	rot /= complex(cmplx.Abs(rot), 0)
	for i := 1000; i < 3000; i++ {
		d := detailed[i] - rot*black[i+bestLag]
		errE += real(d)*real(d) + imag(d)*imag(d)
		sigE += real(detailed[i])*real(detailed[i]) + imag(detailed[i])*imag(detailed[i])
	}
	nmse := 10 * math.Log10(errE/sigE)
	if nmse > -20 {
		t.Errorf("K-model NMSE %v dB vs detailed model, want < -20 dB", nmse)
	}
}

func TestKModelCapturesCompression(t *testing.T) {
	km := extractTestKModel(t)
	// Drive at the LNA compression point (-10 dBm): the black box's
	// midband gain must be ~1 dB below small-signal, like the device.
	n := 2048
	gainAt := func(pin float64) float64 {
		km.Reset()
		in := make([]complex128, n)
		a := units.DBmToAmplitude(pin)
		osc := dsp.NewOscillator(0.05, 0)
		for i := range in {
			in[i] = complex(a, 0) * osc.Next()
		}
		out := km.Process(in)
		return units.WattsToDBm(units.MeanPower(out[n/2:])) - pin
	}
	g0 := gainAt(-70)
	gcp := gainAt(-10)
	if d := g0 - gcp; d < 0.6 || d > 1.6 {
		t.Errorf("compression at -10 dBm = %v dB, want ~1", d)
	}
}

func TestKModelMuchFasterThanDetailed(t *testing.T) {
	km := extractTestKModel(t)
	fe := deterministicAnalogFE(t)
	x := make([]complex128, 20000)
	for i := range x {
		x[i] = complex(1e-4, -1e-4)
	}
	// Each side's time is the fastest of three alternated runs, so a
	// scheduler or GC pause during one run does not decide the comparison.
	detailed, blackBox := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 3 {
		t0 := time.Now()
		fe.Process(dsp.Clone(x))
		detailed = min(detailed, time.Since(t0))
		t0 = time.Now()
		km.Process(dsp.Clone(x))
		blackBox = min(blackBox, time.Since(t0))
	}
	if blackBox*5 > detailed {
		t.Errorf("K-model (%v) not much faster than detailed model (%v)", blackBox, detailed)
	}
}
