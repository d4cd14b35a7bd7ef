package analog

import (
	"math"
	"math/cmplx"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// fftOf returns the FFT of x (length must be a power of two).
func fftOf(x []complex128) []complex128 {
	return dsp.FFT(x)
}

// stepResponseGain drives the stage with a tone at freqHz for n samples and
// returns the steady-state output amplitude relative to the input amplitude.
func toneGain(s Stage, freqHz, fs float64, n int) float64 {
	var peak float64
	settle := n / 2
	for i := 0; i < n; i++ {
		u := math.Cos(2 * math.Pi * freqHz * float64(i) / fs)
		y := s.Step(u)
		if i >= settle {
			if a := math.Abs(y); a > peak {
				peak = a
			}
		}
	}
	return peak
}

func TestCTFirstOrderRCLowpass(t *testing.T) {
	// H(s) = w0/(s+w0): -3 dB at the corner.
	fs := 100e6
	w0 := 2 * math.Pi * 1e6
	st, err := NewCTFirstOrder(w0, 0, w0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneGain(st, 10e3, fs, 200000); math.Abs(g-1) > 0.01 {
		t.Errorf("DC-ish gain %v", g)
	}
	st.Reset()
	if g := toneGain(st, 1e6, fs, 200000); math.Abs(g-1/math.Sqrt2) > 0.01 {
		t.Errorf("corner gain %v, want 0.707", g)
	}
}

func TestRCHighpassBlocksDC(t *testing.T) {
	fs := 100e6
	hp, err := NewRCHighpass(100e3, fs)
	if err != nil {
		t.Fatal(err)
	}
	var y float64
	for i := 0; i < 2_000_000; i++ {
		y = hp.Step(1)
	}
	if math.Abs(y) > 1e-3 {
		t.Errorf("DC residual %v", y)
	}
	hp.Reset()
	// Far above the corner: unity gain.
	if g := toneGain(hp, 10e6, fs, 100000); math.Abs(g-1) > 0.01 {
		t.Errorf("passband gain %v", g)
	}
	if _, err := NewRCHighpass(0, fs); err == nil {
		t.Error("accepted zero corner")
	}
}

func TestCTBiquadMatchesAnalyticSecondOrder(t *testing.T) {
	// H(s) = w0^2/(s^2 + sqrt2 w0 s + w0^2): 2nd-order Butterworth,
	// -3 dB at w0, -40 dB/decade beyond.
	fs := 200e6
	w0 := 2 * math.Pi * 2e6
	q, err := NewCTBiquad(w0*w0, 0, 0, w0*w0, math.Sqrt2*w0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneGain(q, 50e3, fs, 100000); math.Abs(g-1) > 0.01 {
		t.Errorf("DC gain %v", g)
	}
	q.Reset()
	if g := toneGain(q, 2e6, fs, 200000); math.Abs(g-1/math.Sqrt2) > 0.02 {
		t.Errorf("corner gain %v, want 0.707", g)
	}
	q.Reset()
	if g := toneGain(q, 20e6, fs, 200000); g > 0.012 { // -40 dB at 10x
		t.Errorf("decade-out gain %v, want ~0.01", g)
	}
}

func TestCTChebyshevRippleAndRejection(t *testing.T) {
	fs := 320e6
	lp, err := NewCTChebyshevLowpass(5, 9e6, 0.5, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Passband gain within the ripple band [-0.5, 0] dB.
	for _, f := range []float64{0.5e6, 3e6, 6e6, 8.8e6} {
		lp.Reset()
		g := 20 * math.Log10(toneGain(lp, f, fs, 400000))
		if g > 0.15 || g < -0.7 {
			t.Errorf("passband gain %v dB at %v Hz", g, f)
		}
	}
	// 20 MHz (adjacent channel center): heavily rejected.
	lp.Reset()
	if g := 20 * math.Log10(toneGain(lp, 20e6, fs, 400000)); g > -25 {
		t.Errorf("20 MHz rejection only %v dB", g)
	}
	if _, err := NewCTChebyshevLowpass(0, 9e6, 0.5, fs); err == nil {
		t.Error("accepted zero order")
	}
	if _, err := NewCTChebyshevLowpass(5, 200e6, 0.5, fs); err == nil {
		t.Error("accepted edge beyond fs/2")
	}
}

func TestCTNonlinearAmpCompression(t *testing.T) {
	fs := 320e6
	a, err := NewCTNonlinearAmp(18, -10, 0, fs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Small signal: 18 dB gain on a tone.
	ampl := units.DBmToAmplitude(-60) * math.Sqrt2 // peak of a -60 dBm tone
	g := 0.0
	for i := 0; i < 1000; i++ {
		v := ampl * math.Cos(2*math.Pi*0.1*float64(i))
		if y := math.Abs(a.Step(v)); y > g {
			g = y
		}
	}
	gotDB := 20 * math.Log10(g/ampl)
	if math.Abs(gotDB-18) > 0.05 {
		t.Errorf("small-signal gain %v dB", gotDB)
	}
	// At the compression point: 17 dB effective gain on the fundamental.
	// Approximate by RMS ratio (harmonics are small at 1 dB compression).
	amplCP := units.DBmToAmplitude(-10) * math.Sqrt2
	var inP, outP float64
	for i := 0; i < 4096; i++ {
		v := amplCP * math.Cos(2*math.Pi*0.013*float64(i))
		y := a.Step(v)
		inP += v * v
		outP += y * y
	}
	gainDB := 10 * math.Log10(outP/inP)
	if math.Abs(gainDB-17) > 0.35 {
		t.Errorf("gain at CP %v dB, want ~17", gainDB)
	}

	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		name               string
		gain, cp, nf, rate float64
	}{
		{"zero rate", 18, -10, 3, 0},
		{"NaN rate", 18, -10, 3, nan},
		{"infinite rate", 18, -10, 3, inf},
		{"NaN noise figure", 18, -10, nan, fs},
		{"infinite noise figure", 18, -10, inf, fs},
		{"NaN gain", nan, -10, 3, fs},
		{"infinite compression point", 18, inf, 3, fs},
	} {
		if _, err := NewCTNonlinearAmp(bad.gain, bad.cp, bad.nf, bad.rate, 1, true); err == nil {
			t.Errorf("accepted %s", bad.name)
		}
	}
}

func TestCTNonlinearAmpNoiseToggle(t *testing.T) {
	fs := 320e6
	silent, _ := NewCTNonlinearAmp(10, 0, 5, fs, 3, false)
	noisy, _ := NewCTNonlinearAmp(10, 0, 5, fs, 3, true)
	var sp, np float64
	for i := 0; i < 10000; i++ {
		s := silent.Step(0)
		n := noisy.Step(0)
		sp += s * s
		np += n * n
	}
	if sp != 0 {
		t.Error("noise-disabled amp produced output from silence")
	}
	if np == 0 {
		t.Error("noise-enabled amp produced no noise")
	}
}

func TestCTOscillatorPurity(t *testing.T) {
	fs := 320e6
	o, err := NewCTOscillator(80e6, 0, fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// cos^2 + sin^2 = 1 for all samples.
	for i := 0; i < 1000; i++ {
		c, ms := o.Next()
		if math.Abs(c*c+ms*ms-1) > 1e-12 {
			t.Fatalf("LO amplitude error at %d", i)
		}
	}
	o.Reset()
	c0, _ := o.Next()
	if math.Abs(c0-1) > 1e-12 {
		t.Errorf("phase after reset %v", c0)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct {
		name                  string
		freq, linewidth, rate float64
	}{
		{"negative frequency", -1, 0, fs},
		{"NaN frequency", nan, 0, fs},
		{"infinite frequency", inf, 0, fs},
		{"negative linewidth", 80e6, -1, fs},
		{"NaN linewidth", 80e6, nan, fs},
		{"infinite linewidth", 80e6, inf, fs},
		{"zero rate", 80e6, 0, 0},
		{"NaN rate", 80e6, 0, nan},
		{"infinite rate", 80e6, 0, inf},
	} {
		if _, err := NewCTOscillator(bad.freq, bad.linewidth, bad.rate, 1); err == nil {
			t.Errorf("accepted %s", bad.name)
		}
	}
}

func TestFrontEndPassesBasebandTone(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.EnableNoise = false
	cfg.LOLinewidthHz = 0
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A -50 dBm complex tone at +3 MHz must come out at +3 MHz with the
	// nominal small-signal gain (LNA 18 + out 15 = 33 dB).
	n := 8192
	in := make([]complex128, n)
	a := units.DBmToAmplitude(-50)
	for i := range in {
		in[i] = complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*3e6*float64(i)/20e6))
	}
	out := fe.Process(in)
	if len(out) != n {
		t.Fatalf("output length %d, want %d", len(out), n)
	}
	settled := out[n/2:]
	gotP := units.WattsToDBm(units.MeanPower(settled))
	if math.Abs(gotP-(-50+33)) > 1 {
		t.Errorf("output power %v dBm, want ~-17", gotP)
	}
	// Frequency preserved: phase step = 2*pi*3e6/20e6.
	wantStep := 2 * math.Pi * 3e6 / 20e6
	for i := 1; i < 200; i++ {
		d := cmplx.Phase(settled[i] * cmplx.Conj(settled[i-1]))
		if math.Abs(d-wantStep) > 0.02 {
			t.Fatalf("phase step %v at %d, want %v", d, i, wantStep)
		}
	}
}

func TestFrontEndRejectsAdjacentChannel(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.InputRateHz = 80e6 // oversampled composite input
	cfg.EnableNoise = false
	cfg.LOLinewidthHz = 0
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tone at +20 MHz (adjacent channel center) must be strongly rejected
	// relative to a tone at +3 MHz.
	n := 16384
	gain := func(freq float64) float64 {
		fe.Reset()
		in := make([]complex128, n)
		a := units.DBmToAmplitude(-50)
		for i := range in {
			in[i] = complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/80e6))
		}
		out := fe.Process(in)
		return units.WattsToDBm(units.MeanPower(out[len(out)/2:]))
	}
	inband := gain(3e6)
	adjacent := gain(20e6)
	if inband-adjacent < 25 {
		t.Errorf("adjacent rejection only %v dB", inband-adjacent)
	}
}

func TestFrontEndValidation(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.InputRateHz = 0
	if _, err := NewFrontEnd(cfg); err == nil {
		t.Error("accepted zero input rate")
	}
	cfg = DefaultFrontEndConfig()
	cfg.SolverOversample = 2
	if _, err := NewFrontEnd(cfg); err == nil {
		t.Error("accepted too-small solver oversample")
	}
}

func TestFrontEndResetReproducible(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.EnableNoise = true
	cfg.LNANoiseFigureDB = 6
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]complex128, 512)
	for i := range in {
		in[i] = complex(1e-4*math.Cos(float64(i)/3), 1e-4*math.Sin(float64(i)/5))
	}
	a := fe.Process(append([]complex128(nil), in...))
	ra := append([]complex128(nil), a...)
	fe.Reset()
	b := fe.Process(append([]complex128(nil), in...))
	for i := range ra {
		if ra[i] != b[i] {
			t.Fatal("front end not reproducible after Reset")
		}
	}
}

func TestFrontEndIQImbalanceCreatesImage(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.EnableNoise = false
	cfg.LOLinewidthHz = 0
	cfg.IQGainImbalanceDB = 0.5
	cfg.IQPhaseErrorDeg = 2
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tone at +3 MHz: the image appears at -3 MHz with finite rejection.
	n := 8192
	in := make([]complex128, n)
	a := units.DBmToAmplitude(-50)
	for i := range in {
		in[i] = complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*3e6*float64(i)/20e6))
	}
	out := fe.Process(in)
	seg := out[n/2 : n/2+4096]
	spec := make([]complex128, len(seg))
	copy(spec, seg)
	fft := fftOf(spec)
	// +3 MHz -> bin 3e6/20e6*4096 = 614; image at 4096-614.
	direct := cmplx.Abs(fft[614])
	image := cmplx.Abs(fft[4096-614])
	irr := 20 * math.Log10(direct/image)
	// 0.5 dB / 2 deg imbalance implies ~30 dB IRR; allow generous margin
	// for leakage.
	if irr < 20 || irr > 40 {
		t.Errorf("image rejection %v dB, want ~30", irr)
	}

	// Without imbalance the image is far weaker.
	cfg2 := DefaultFrontEndConfig()
	cfg2.EnableNoise = false
	cfg2.LOLinewidthHz = 0
	fe2, _ := NewFrontEnd(cfg2)
	in2 := make([]complex128, n)
	for i := range in2 {
		in2[i] = complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*3e6*float64(i)/20e6))
	}
	out2 := fe2.Process(in2)
	seg2 := out2[n/2 : n/2+4096]
	fft2 := fftOf(seg2)
	irr2 := 20 * math.Log10(cmplx.Abs(fft2[614])/cmplx.Abs(fft2[4096-614]))
	if irr2 < irr+10 {
		t.Errorf("balanced front end IRR %v dB not much better than skewed %v dB", irr2, irr)
	}
}

func TestFrontEndDCOffsetAppears(t *testing.T) {
	cfg := DefaultFrontEndConfig()
	cfg.EnableNoise = false
	cfg.LOLinewidthHz = 0
	cfg.EnableDC = true
	cfg.DCOffsetDBm = -45
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := fe.Process(make([]complex128, 8000))
	// After settling, the output carries the DC scaled by the output gain
	// (the channel filter passes DC).
	tail := out[6000:]
	var mean complex128
	for _, v := range tail {
		mean += v
	}
	mean /= complex(float64(len(tail)), 0)
	wantP := -45.0 + cfg.OutputGainDB
	gotP := units.WattsToDBm(real(mean)*real(mean) + imag(mean)*imag(mean))
	if math.Abs(gotP-wantP) > 1.5 {
		t.Errorf("DC level %v dBm, want ~%v", gotP, wantP)
	}
}
