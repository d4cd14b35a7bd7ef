package analog

import (
	"fmt"
	"math"
	"testing"

	"wlansim/internal/units"
)

const benchFS = 320e6

func TestCTBenchMeasuresLNAGain(t *testing.T) {
	a, err := NewCTNonlinearAmp(18, -10, 0, benchFS, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b := NewCTBench(benchFS)
	g, err := b.MeasureGain(a, 10e6, -60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-18) > 0.1 {
		t.Errorf("gain %v dB, want 18", g)
	}
}

func TestCTBenchMeasuresLNAP1dB(t *testing.T) {
	for _, cp := range []float64{-20, -10} {
		a, _ := NewCTNonlinearAmp(15, cp, 0, benchFS, 1, false)
		b := NewCTBench(benchFS)
		got, err := b.MeasureP1dB(a, 10e6, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-cp) > 0.4 {
			t.Errorf("P1dB %v dBm, want %v", got, cp)
		}
	}
}

func TestCTBenchMeasuresLNAIIP3(t *testing.T) {
	// The CT cubic is parameterized by P1dB; the classical relation puts
	// IIP3 about 9.6 dB above it.
	a, _ := NewCTNonlinearAmp(15, -15, 0, benchFS, 1, false)
	b := NewCTBench(benchFS)
	got, err := b.MeasureIIP3(a, 11.25e6, 2.5e6, -40)
	if err != nil {
		t.Fatal(err)
	}
	want := -15 + 9.64
	if math.Abs(got-want) > 0.8 {
		t.Errorf("IIP3 %v dBm, want ~%v", got, want)
	}
}

func TestCTBenchMeasuresFilterResponse(t *testing.T) {
	lp, err := NewCTChebyshevLowpass(5, 9e6, 0.5, benchFS)
	if err != nil {
		t.Fatal(err)
	}
	b := NewCTBench(benchFS)
	pass, err := b.MeasureGain(lp, 2.5e6, -40)
	if err != nil {
		t.Fatal(err)
	}
	if pass > 0.1 || pass < -0.7 {
		t.Errorf("passband response %v dB", pass)
	}
	stop, err := b.MeasureGain(lp, 20e6, -40)
	if err != nil {
		t.Fatal(err)
	}
	if stop > -25 {
		t.Errorf("stopband response %v dB", stop)
	}
}

func TestCTBenchValidation(t *testing.T) {
	a, _ := NewCTNonlinearAmp(10, -10, 0, benchFS, 1, false)
	b := &CTBench{}
	if _, err := b.MeasureGain(a, 10e6, -40); err == nil {
		t.Error("accepted zero sample rate")
	}
	b = NewCTBench(benchFS)
	if _, err := b.MeasureIIP3(a, 1e6, 3e6, -40); err == nil {
		t.Error("accepted IM3 below the measurable grid")
	}
	if _, err := b.MeasureGain(a, 200e6, -40); err == nil {
		t.Error("accepted a frequency beyond Nyquist")
	}
	lin, _ := NewCTNonlinearAmp(10, 40, 0, benchFS, 1, false) // effectively linear
	if _, err := b.MeasureP1dB(lin, 10e6, 1); err == nil {
		t.Error("found compression on an effectively linear stage")
	}
}

func TestCTBenchMeasuresNoiseFigure(t *testing.T) {
	a, err := NewCTNonlinearAmp(18, 0, 4, benchFS, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	b := NewCTBench(benchFS)
	nf, err := b.MeasureNoiseFigure(a, 18)
	if err != nil {
		t.Fatal(err)
	}
	if nf < 3.5 || nf > 4.5 {
		t.Errorf("measured NF %v dB, want ~4", nf)
	}
	quiet, _ := NewCTNonlinearAmp(18, 0, 4, benchFS, 5, false)
	if _, err := b.MeasureNoiseFigure(quiet, 18); err == nil {
		t.Error("measured an NF on a noiseless stage")
	}
	bad := &CTBench{}
	if _, err := bad.MeasureNoiseFigure(a, 18); err == nil {
		t.Error("accepted zero sample rate")
	}
}

// MeasureNoiseFigure measures the stage's output noise with a silent input
// and returns the implied noise figure in dB: the stage's internal noise
// referred to its input over the bench bandwidth, NF = 1 + Pn_in/(kTB).
// gainDB must be the stage's small-signal power gain.
func (b *CTBench) MeasureNoiseFigure(s Stage, gainDB float64) (float64, error) {
	if b.SampleRateHz <= 0 {
		return 0, fmt.Errorf("analog: bench needs a sample rate")
	}
	n := b.capture() * 4
	s.Reset()
	var acc float64
	for i := 0; i < n; i++ {
		v := s.Step(0)
		if i >= n/4 {
			acc += v * v
		}
	}
	pn := acc / float64(n-n/4)
	if pn <= 0 {
		return 0, fmt.Errorf("analog: stage is noiseless")
	}
	// Real-signal bench: thermal reference power is kT*fs/2 over the
	// sampled band (the noise sources here are calibrated the same way).
	ktb := units.Boltzmann * units.RoomTemperature * b.SampleRateHz / 2
	f := pn/(ktb*units.DBToLinear(gainDB)) + 1
	return units.LinearToDB(f), nil
}
