package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowProperties(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman, BlackmanHarris} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: wrong length", w)
		}
		// Symmetric.
		for i := range c {
			if math.Abs(c[i]-c[63-i]) > 1e-12 {
				t.Errorf("%v: asymmetric at %d", w, i)
			}
		}
		// Bounded by [0-eps, 1].
		for i, v := range c {
			if v < -1e-9 || v > 1+1e-12 {
				t.Errorf("%v: coefficient %d = %v out of range", w, i, v)
			}
		}
		if g := w.PowerGain(64); g <= 0 || g > 1+1e-12 {
			t.Errorf("%v: power gain %v out of (0,1]", w, g)
		}
	}
	if Rectangular.PowerGain(16) != 1 {
		t.Error("rectangular power gain != 1")
	}
	if c := Hann.Coefficients(1); c[0] != 1 {
		t.Error("length-1 window != 1")
	}
}

func TestWindowNames(t *testing.T) {
	if Hann.String() != "hann" || Window(99).String() != "unknown" {
		t.Error("window String() wrong")
	}
}

func TestWelchPSDWhiteNoiseLevel(t *testing.T) {
	// Complex white noise of power P has a flat two-sided PSD of P/fs per Hz.
	r := rand.New(rand.NewSource(9))
	fs := 20e6
	n := 1 << 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	psd, err := WelchPSD(x, fs, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / fs
	var mean float64
	for _, d := range psd.DensityWPerHz {
		mean += d
	}
	mean /= float64(len(psd.DensityWPerHz))
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("mean density %g, want %g +-10%%", mean, want)
	}
	// Total integrated power equals the signal power (~1 W).
	if p := psd.BandPowerW(math.Inf(-1), math.Inf(1)); math.Abs(p-1) > 0.1 {
		t.Errorf("total power %v, want ~1", p)
	}
}

func TestWelchPSDToneLocation(t *testing.T) {
	fs := 80e6
	x := tone(1<<14, 0.25) // tone at +20 MHz
	psd, err := WelchPSD(x, fs, 512, Blackman)
	if err != nil {
		t.Fatal(err)
	}
	best, bestD := 0, 0.0
	for i, d := range psd.DensityWPerHz {
		if d > bestD {
			best, bestD = i, d
		}
	}
	if f := psd.FreqHz[best]; math.Abs(f-20e6) > fs/512 {
		t.Errorf("tone located at %v Hz, want 20 MHz", f)
	}
	// Band power around the tone captures ~unit power.
	if p := psd.BandPowerW(19e6, 21e6); math.Abs(p-1) > 0.05 {
		t.Errorf("band power %v, want ~1", p)
	}
}

func TestWelchPSDValidation(t *testing.T) {
	x := make([]complex128, 100)
	if _, err := WelchPSD(x, 1e6, 100, Hann); err == nil {
		t.Error("accepted non-power-of-two segment")
	}
	if _, err := WelchPSD(x, 1e6, 256, Hann); err == nil {
		t.Error("accepted signal shorter than segment")
	}
	if _, err := WelchPSD(x, 0, 64, Hann); err == nil {
		t.Error("accepted zero sample rate")
	}
}

func TestPSDDBmPerHz(t *testing.T) {
	p := &PSD{FreqHz: []float64{0, 1}, DensityWPerHz: []float64{1e-3, 0}, SampleRateHz: 2}
	if got := p.DBmPerHz(0); math.Abs(got-0) > 1e-9 {
		t.Errorf("1 mW/Hz = %v dBm/Hz, want 0", got)
	}
	if !math.IsInf(p.DBmPerHz(1), -1) {
		t.Error("zero density should be -Inf dBm/Hz")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := func(v float64) bool {
		x := []complex128{complex(v, -v)}
		y := Clone(x)
		y[0] = 0
		return x[0] == complex(v, -v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
