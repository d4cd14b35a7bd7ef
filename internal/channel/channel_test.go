package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

func constantSignal(n int, v complex128) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = v
	}
	return x
}

func TestAWGNPowerAndStatistics(t *testing.T) {
	a := NewAWGN(2.0, 1)
	n := 200000
	var sumP float64
	var sum complex128
	for _, s := range a.AddTo(make([]complex128, n)) {
		sumP += real(s)*real(s) + imag(s)*imag(s)
		sum += s
	}
	meanP := sumP / float64(n)
	if math.Abs(meanP-2) > 0.05 {
		t.Errorf("noise power %v, want 2", meanP)
	}
	if cmplx.Abs(sum)/float64(n) > 0.02 {
		t.Errorf("noise mean %v not ~0", sum)
	}
}

func TestAWGNZeroAndNegativePower(t *testing.T) {
	a := NewAWGN(0, 2)
	if a.AddTo(make([]complex128, 1))[0] != 0 {
		t.Error("zero-power noise not zero")
	}
	b := NewAWGN(-5, 3)
	if b.AddTo(make([]complex128, 1))[0] != 0 {
		t.Error("negative power should clamp to zero noise")
	}
}

func TestAddNoiseSNR(t *testing.T) {
	x := constantSignal(100000, 1) // 0 dBW signal
	np := AddNoiseSNR(x, 10, 4)
	if math.Abs(np-0.1) > 1e-12 {
		t.Errorf("noise power %v, want 0.1", np)
	}
	// Realized SNR within 0.3 dB.
	var noiseP float64
	for _, v := range x {
		d := v - 1
		noiseP += real(d)*real(d) + imag(d)*imag(d)
	}
	noiseP /= float64(len(x))
	snr := units.LinearToDB(1 / noiseP)
	if math.Abs(snr-10) > 0.3 {
		t.Errorf("realized SNR %v dB, want 10", snr)
	}
	if got := AddNoiseSNR(nil, 10, 5); got != 0 {
		t.Error("empty signal should add no noise")
	}
}

func TestMultipathImpulseResponse(t *testing.T) {
	taps := []complex128{1, 0.5i, -0.25}
	m, err := NewMultipath(taps)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 5)
	x[0] = 1
	m.Process(x)
	want := []complex128{1, 0.5i, -0.25, 0, 0}
	for i := range want {
		if cmplx.Abs(x[i]-want[i]) > 1e-15 {
			t.Fatalf("impulse response %v, want %v", x, want)
		}
	}
}

func TestMultipathStatePersistsAcrossFrames(t *testing.T) {
	taps := []complex128{0.5, 0.5}
	m1, _ := NewMultipath(taps)
	m2, _ := NewMultipath(taps)
	x := []complex128{1, 2, 3, 4}
	batch := m1.Process(dsp.Clone(x))
	var stream []complex128
	stream = append(stream, m2.Process(dsp.Clone(x[:2]))...)
	stream = append(stream, m2.Process(dsp.Clone(x[2:]))...)
	for i := range batch {
		if batch[i] != stream[i] {
			t.Fatalf("frame boundary changed output: %v vs %v", stream, batch)
		}
	}
}

func TestMultipathValidationAndReset(t *testing.T) {
	if _, err := NewMultipath(nil); err == nil {
		t.Error("accepted empty taps")
	}
	m, _ := NewMultipath([]complex128{1, 1})
	m.Process([]complex128{1})
	m.Reset()
	out := m.Process([]complex128{1})
	if out[0] != 1 {
		t.Errorf("state not cleared by Reset: %v", out[0])
	}
}

func TestRayleighChannelNormalization(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m, err := NewRayleighChannel(8, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for _, tap := range m.taps {
			p += real(tap)*real(tap) + imag(tap)*imag(tap)
		}
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("seed %d: tap power %v, want 1", seed, p)
		}
	}
	if _, err := NewRayleighChannel(0, 1, 1); err == nil {
		t.Error("accepted zero taps")
	}
}

func TestRayleighChannelExponentialProfile(t *testing.T) {
	// Average over many realizations: later taps carry less power.
	const trials = 300
	powers := make([]float64, 6)
	for seed := int64(0); seed < trials; seed++ {
		m, _ := NewRayleighChannel(6, 2, seed)
		for i, tap := range m.taps {
			powers[i] += real(tap)*real(tap) + imag(tap)*imag(tap)
		}
	}
	for i := 1; i < len(powers); i++ {
		if powers[i] >= powers[i-1] {
			t.Errorf("tap %d mean power %v >= tap %d power %v", i, powers[i], i-1, powers[i-1])
		}
	}
}

func TestMultipathFrequencyResponseMatchesProcess(t *testing.T) {
	m, _ := NewRayleighChannel(4, 2, 7)
	// A pure tone through the channel is scaled by H(nu).
	nu := 0.05
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*nu*float64(i)))
	}
	ref := dsp.Clone(x)
	m.Process(x)
	h := m.FrequencyResponse(nu)
	// Compare steady-state samples.
	for i := 100; i < 200; i++ {
		if cmplx.Abs(x[i]-h*ref[i]) > 1e-9 {
			t.Fatalf("tone response mismatch at %d", i)
		}
	}
}

func TestCFORotatesPhase(t *testing.T) {
	fs := 20e6
	offset := 100e3
	c := NewCFO(offset, fs, 0)
	x := constantSignal(200, 1)
	c.Process(x)
	// Phase advance per sample is 2*pi*offset/fs.
	wantStep := 2 * math.Pi * offset / fs
	for i := 1; i < len(x); i++ {
		d := cmplx.Phase(x[i] * cmplx.Conj(x[i-1]))
		if math.Abs(d-wantStep) > 1e-9 {
			t.Fatalf("phase step %v at %d, want %v", d, i, wantStep)
		}
	}
}

func TestComposerSingleEmitterPower(t *testing.T) {
	c, err := NewComposer(1)
	if err != nil {
		t.Fatal(err)
	}
	sig := constantSignal(1000, 1+1i)
	out, err := c.Compose([]Emitter{{Samples: sig, PowerDBm: -30}})
	if err != nil {
		t.Fatal(err)
	}
	if got := units.WattsToDBm(units.MeanPower(out)); math.Abs(got+30) > 0.01 {
		t.Errorf("composite power %v dBm, want -30", got)
	}
}

func TestComposerAdjacentChannelSpectrum(t *testing.T) {
	// Wanted at 0 Hz (-60 dBm), adjacent at +20 MHz (-44 dBm): the PSD must
	// show both humps at the right frequencies with ~16 dB offset.
	c, _ := NewComposer(4) // 80 MHz composite rate
	rng := NewAWGN(1, 9)
	mk := func(n int) []complex128 {
		x := rng.AddTo(make([]complex128, n))
		// Bandlimit to ~8 MHz (half band at 20 MHz rate).
		f, _ := dsp.DesignLowpassFIR(63, 0.4, dsp.Blackman)
		return f.Process(x)
	}
	wanted := mk(8192)
	adj := mk(8192)
	out, err := c.Compose([]Emitter{
		{Samples: wanted, OffsetHz: 0, PowerDBm: -60},
		{Samples: adj, OffsetHz: 20e6, PowerDBm: -44},
	})
	if err != nil {
		t.Fatal(err)
	}
	psd, err := dsp.WelchPSD(out, c.CompositeRateHz(), 1024, dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	pWanted := psd.BandPowerW(-9e6, 9e6)
	pAdj := psd.BandPowerW(11e6, 29e6)
	ratio := units.LinearToDB(pAdj / pWanted)
	if math.Abs(ratio-16) > 1.5 {
		t.Errorf("adjacent/wanted ratio %v dB, want ~16", ratio)
	}
}

func TestComposerValidation(t *testing.T) {
	if _, err := NewComposer(0); err == nil {
		t.Error("accepted zero oversample")
	}
	c, _ := NewComposer(1)
	if _, err := c.Compose(nil); err == nil {
		t.Error("accepted no emitters")
	}
	if _, err := c.Compose([]Emitter{{}}); err == nil {
		t.Error("accepted empty emitter")
	}
	// 20 MHz offset needs more than 1x oversampling.
	sig := constantSignal(16, 1)
	if _, err := c.Compose([]Emitter{{Samples: sig, OffsetHz: 20e6}}); err == nil {
		t.Error("accepted offset beyond Nyquist")
	}
}

func TestMinOversample(t *testing.T) {
	if got := MinOversample(0); got != 1 {
		t.Errorf("MinOversample(0) = %d", got)
	}
	if got := MinOversample(20e6); got != 3 {
		t.Errorf("MinOversample(20 MHz) = %d, want 3", got)
	}
	if got := MinOversample(40e6); got != 5 {
		t.Errorf("MinOversample(40 MHz) = %d, want 5", got)
	}
}

func TestComposerDelay(t *testing.T) {
	c, _ := NewComposer(2)
	sig := constantSignal(4, 1)
	out, err := c.Compose([]Emitter{{Samples: sig, PowerDBm: 0, DelaySamples: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Length covers delay + signal + the interpolation filter flush.
	if len(out) < (3+4)*2 {
		t.Fatalf("composite length %d shorter than the delayed signal", len(out))
	}
	// The first 6 composite samples hold only filter transients near zero
	// until the delayed signal starts (the interpolation filter has delay,
	// so just check leading samples are much weaker than the body).
	lead := units.MeanPower(out[:4])
	body := units.MeanPower(out[8:])
	if lead > body/10 {
		t.Errorf("delayed emitter leaks early: lead %v vs body %v", lead, body)
	}
}

func TestSampleClockOffset(t *testing.T) {
	if _, err := NewSampleClockOffset(-1e12); err == nil {
		t.Error("accepted a ratio that goes non-positive")
	}
	s, err := NewSampleClockOffset(100) // +100 ppm
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	out := s.Process(make([]complex128, n))
	want := float64(n) * (1 + 100e-6)
	if math.Abs(float64(len(out))-want) > 5 {
		t.Errorf("output %d samples, want ~%.0f", len(out), want)
	}
	s.Reset()
	if s.PPM != 100 {
		t.Errorf("PPM field %v", s.PPM)
	}
}

func TestComposerFlushesInterpolatorTail(t *testing.T) {
	// Regression: Compose used to truncate each emitter at
	// len(samples)*oversample, chopping off the interpolation filter's
	// group-delay worth of signal — the tail of the last OFDM symbol.
	// The full upsampled energy must survive composition.
	c, _ := NewComposer(3)
	sig := make([]complex128, 256)
	for i := range sig {
		sig[i] = complex(1, -0.5)
	}
	out, err := c.Compose([]Emitter{{Samples: sig, PowerDBm: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Energy conservation: the emitter is scaled to 0 dBm mean power over
	// its own extent, so the composite's total energy must be
	// 1 mW x len(sig) x oversample (amplitude preserved, 3x more samples).
	outE := units.MeanPower(out) * float64(len(out))
	wantE := units.DBmToWatts(0) * float64(len(sig)) * 3
	if math.Abs(outE-wantE) > 0.03*wantE {
		t.Errorf("composite energy %v, want ~%v (tail truncated?)", outE, wantE)
	}
}

func TestComposerPowerAccuracyProperty(t *testing.T) {
	// For any requested power, the composed emitter's mean power over its
	// extent matches to within a fraction of a dB (quick-checked).
	f := func(p8 int8, seed int64) bool {
		target := -80 + float64(int(p8)%60+60)/2 // -80..-50 dBm
		rng := rand.New(rand.NewSource(seed))
		sig := make([]complex128, 512)
		for i := range sig {
			sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		c, err := NewComposer(2)
		if err != nil {
			return false
		}
		out, err := c.Compose([]Emitter{{Samples: sig, PowerDBm: target}})
		if err != nil {
			return false
		}
		got := units.WattsToDBm(units.MeanPower(out[:len(sig)*2]))
		return math.Abs(got-target) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FrequencyResponse evaluates the channel response at normalized frequency
// nu (cycles per sample).
func (m *Multipath) FrequencyResponse(nu float64) complex128 {
	var h complex128
	for n, t := range m.taps {
		phase := -2 * math.Pi * nu * float64(n)
		h += t * complex(math.Cos(phase), math.Sin(phase))
	}
	return h
}
