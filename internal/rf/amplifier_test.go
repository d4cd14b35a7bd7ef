package rf

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

func toneAt(n int, nu, ampl float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(ampl, 0) * cmplx.Exp(complex(0, 2*math.Pi*nu*float64(i)))
	}
	return x
}

func binPowerDBm(x []complex128, bin int) float64 {
	fx := dsp.FFT(dsp.Clone(x))
	v := fx[bin] / complex(float64(len(x)), 0)
	return units.WattsToDBm(real(v)*real(v) + imag(v)*imag(v))
}

func TestAmplifierSmallSignalGain(t *testing.T) {
	a, err := NewAmplifier(AmplifierConfig{
		Name: "test", GainDB: 20, Model: Cubic, IIP3DBm: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// -40 dBm input, 40 dB below IIP3: negligible compression.
	in := toneAt(1024, 1.0/16, units.DBmToAmplitude(-40))
	out := a.Process(in)
	if got := units.WattsToDBm(units.MeanPower(out)); math.Abs(got-(-20)) > 0.01 {
		t.Errorf("output power %v dBm, want -20", got)
	}
}

func TestAmplifierCompressionPoint(t *testing.T) {
	// At the configured 1 dB compression point the gain is down by 1 dB.
	for _, cp := range []float64{-20, -10, 0} {
		a, err := NewAmplifier(AmplifierConfig{
			Name: "cp", GainDB: 15, Model: Cubic,
			UseCompression: true, CompressionDBm: cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := toneAt(256, 0.25, units.DBmToAmplitude(cp))
		out := a.Process(in)
		gain := units.WattsToDBm(units.MeanPower(out)) - cp
		if math.Abs(gain-14) > 0.02 {
			t.Errorf("CP %v dBm: gain %v dB at compression, want 14", cp, gain)
		}
	}
}

func TestAmplifierIIP3TwoTone(t *testing.T) {
	// Classic two-tone test: IM3 relative power must be 2*(IIP3 - Pin) dB
	// below each fundamental.
	const iip3 = -5.0
	a, err := NewAmplifier(AmplifierConfig{
		Name: "ip3", GainDB: 10, Model: Cubic, IIP3DBm: iip3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	pin := -35.0 // per tone, 30 dB below IIP3
	ampl := units.DBmToAmplitude(pin)
	bin1, bin2 := 512, 640 // f2-f1 = 128 bins; IM3 at 2*f1-f2 = 384, 2*f2-f1 = 768
	x := make([]complex128, n)
	for i := range x {
		ph1 := 2 * math.Pi * float64(bin1*i) / float64(n)
		ph2 := 2 * math.Pi * float64(bin2*i) / float64(n)
		x[i] = complex(ampl, 0) * (cmplx.Exp(complex(0, ph1)) + cmplx.Exp(complex(0, ph2)))
	}
	a.Process(x)
	fund := binPowerDBm(x, bin1)
	im3 := binPowerDBm(x, 384)
	suppression := fund - im3
	want := 2 * (iip3 - pin) // 60 dB
	if math.Abs(suppression-want) > 0.5 {
		t.Errorf("IM3 suppression %v dB, want %v", suppression, want)
	}
}

func TestAmplifierSaturationClamp(t *testing.T) {
	// Far beyond compression the cubic would fold over; the clamp must keep
	// the output envelope at its saturation value.
	a, _ := NewAmplifier(AmplifierConfig{
		Name: "sat", GainDB: 10, Model: Cubic, UseCompression: true, CompressionDBm: -20,
	})
	sat := a.OutputSaturationDBm()
	in := toneAt(64, 0.25, units.DBmToAmplitude(+10)) // 30 dB over CP
	out := a.Process(in)
	got := units.WattsToDBm(units.MeanPower(out))
	if math.Abs(got-sat) > 0.01 {
		t.Errorf("saturated output %v dBm, want clamp at %v", got, sat)
	}
	// Monotonicity: harder drive never yields more power.
	a.Reset()
	prev := math.Inf(-1)
	for pin := -40.0; pin <= 10; pin += 2 {
		out := a.Process(toneAt(64, 0.25, units.DBmToAmplitude(pin)))
		p := units.WattsToDBm(units.MeanPower(out))
		if p < prev-1e-9 {
			t.Fatalf("output power fell from %v to %v dBm at Pin %v", prev, p, pin)
		}
		prev = p
	}
}

func TestAmplifierRappModel(t *testing.T) {
	a, err := NewAmplifier(AmplifierConfig{
		Name: "rapp", GainDB: 12, Model: Rapp, UseCompression: true, CompressionDBm: -15,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gain down 1 dB at the compression point.
	out := a.Process(toneAt(128, 0.25, units.DBmToAmplitude(-15)))
	gain := units.WattsToDBm(units.MeanPower(out)) - (-15)
	if math.Abs(gain-11) > 0.05 {
		t.Errorf("Rapp gain at CP %v dB, want 11", gain)
	}
	// Small-signal gain intact.
	a.Reset()
	out = a.Process(toneAt(128, 0.25, units.DBmToAmplitude(-60)))
	gain = units.WattsToDBm(units.MeanPower(out)) - (-60)
	if math.Abs(gain-12) > 0.05 {
		t.Errorf("Rapp small-signal gain %v dB, want 12", gain)
	}
	// Hard saturation: output approaches Asat from below.
	out = a.Process(toneAt(128, 0.25, units.DBmToAmplitude(20)))
	if got, sat := units.WattsToDBm(units.MeanPower(out)), a.OutputSaturationDBm(); got > sat {
		t.Errorf("Rapp output %v dBm above saturation %v", got, sat)
	}
}

func TestAmplifierNoiseFigure(t *testing.T) {
	// A noiseless input through a NF=6 dB amplifier over fs=20 MHz picks up
	// kTB*(F-1) input-referred noise.
	fs := 20e6
	a, err := NewAmplifier(AmplifierConfig{
		Name: "nf", GainDB: 20, NoiseFigureDB: 6, Model: Linear,
		SampleRateHz: fs, NoiseSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]complex128, 200000)
	out := a.Process(in)
	got := units.WattsToDBm(units.MeanPower(out))
	f := units.DBToLinear(6.0)
	want := units.WattsToDBm(units.Boltzmann*units.RoomTemperature*fs*(f-1)) + 20
	if math.Abs(got-want) > 0.2 {
		t.Errorf("output noise %v dBm, want %v", got, want)
	}
}

func TestAmplifierDisableNoise(t *testing.T) {
	a, err := NewAmplifier(AmplifierConfig{
		Name: "nonoise", GainDB: 20, NoiseFigureDB: 6, Model: Linear,
		SampleRateHz: 20e6, DisableNoise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := a.Process(make([]complex128, 100))
	if units.MeanPower(out) != 0 {
		t.Error("disabled noise source still produced noise")
	}
}

func TestAmplifierNoiseDeterministicAfterReset(t *testing.T) {
	cfg := AmplifierConfig{
		Name: "det", GainDB: 0, NoiseFigureDB: 10, Model: Linear,
		SampleRateHz: 20e6, NoiseSeed: 7,
	}
	a, _ := NewAmplifier(cfg)
	x1 := a.Process(make([]complex128, 16))
	first := dsp.Clone(x1)
	a.Reset()
	x2 := a.Process(make([]complex128, 16))
	for i := range first {
		if first[i] != x2[i] {
			t.Fatal("noise not reproducible after Reset")
		}
	}
}

// TestAmplifierProcessMatchesPerSample pins Amplifier.Process to a
// ProcessSample loop on a twin amplifier bit for bit: every nonlinearity
// model, AM/PM off and on, the noise source on and off. Three frames of an
// odd length stream without a Reset between them, so the noise stream must
// carry across calls, and a Reset then replays the first frame. The input
// drives the nonlinear models into compression and the cubic past its
// saturation clamp.
func TestAmplifierProcessMatchesPerSample(t *testing.T) {
	for _, model := range []NonlinearModel{Linear, Cubic, Rapp} {
		for _, ampm := range []float64{0, 5} {
			for _, noise := range []bool{true, false} {
				cfg := AmplifierConfig{
					Name: "eq", GainDB: 12, NoiseFigureDB: 4, Model: model,
					UseCompression: true, CompressionDBm: -20, AMPMDegPerDB: ampm,
					SampleRateHz: 20e6, NoiseSeed: 5, DisableNoise: !noise,
				}
				aFrame, err := NewAmplifier(cfg)
				if err != nil {
					t.Fatal(err)
				}
				aSample, err := NewAmplifier(cfg)
				if err != nil {
					t.Fatal(err)
				}
				frames := make([][]complex128, 3)
				for f := range frames {
					frames[f] = noiseSignal(1021, -26+4*float64(f), int64(20+f))
				}
				check := func(where string, x []complex128) {
					t.Helper()
					want := make([]complex128, len(x))
					for i, v := range x {
						want[i] = aSample.ProcessSample(v)
					}
					got := aFrame.Process(append([]complex128(nil), x...))
					for i := range got {
						if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
							t.Fatalf("model %d ampm %g noise %v %s sample %d: frame %v != per-sample %v",
								model, ampm, noise, where, i, got[i], want[i])
						}
					}
				}
				for f, x := range frames {
					check(fmt.Sprintf("frame %d", f), x)
				}
				aFrame.Reset()
				aSample.Reset()
				check("replay after Reset", frames[0])
			}
		}
	}
}

func TestAmplifierAMPM(t *testing.T) {
	a, err := NewAmplifier(AmplifierConfig{
		Name: "ampm", GainDB: 10, Model: Cubic,
		UseCompression: true, CompressionDBm: -20, AMPMDegPerDB: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small signal: negligible phase shift.
	small := a.ProcessSample(complex(units.DBmToAmplitude(-60), 0))
	if ph := cmplx.Phase(small); math.Abs(ph) > 0.01 {
		t.Errorf("small-signal phase %v rad", ph)
	}
	// At the compression point the output lags by ~5 degrees per dB of
	// compression (1 dB) = 5 degrees.
	big := a.ProcessSample(complex(units.DBmToAmplitude(-20), 0))
	if ph := cmplx.Phase(big) * 180 / math.Pi; math.Abs(ph-5) > 0.5 {
		t.Errorf("AM/PM phase %v deg, want ~5", ph)
	}
}

func TestAmplifierValidation(t *testing.T) {
	if _, err := NewAmplifier(AmplifierConfig{NoiseFigureDB: 3}); err == nil {
		t.Error("accepted noise figure without sample rate")
	}
	if _, err := NewAmplifier(AmplifierConfig{NoiseFigureDB: -1}); err == nil {
		t.Error("accepted negative noise figure")
	}
	if _, err := NewAmplifier(AmplifierConfig{Model: Rapp}); err == nil {
		t.Error("accepted Rapp without compression point")
	}
	if _, err := NewAmplifier(AmplifierConfig{Model: NonlinearModel(9)}); err == nil {
		t.Error("accepted unknown model")
	}
}

func TestP1dBIIP3Relation(t *testing.T) {
	if got := P1dBFromIIP3(0); math.Abs(got+9.6357) > 1e-9 {
		t.Errorf("P1dB(0 dBm IIP3) = %v", got)
	}
	if got := IIP3FromP1dB(P1dBFromIIP3(-7)); math.Abs(got+7) > 1e-12 {
		t.Errorf("round trip %v", got)
	}
}

// ProcessSample amplifies one sample.
func (a *Amplifier) ProcessSample(x complex128) complex128 {
	if a.noise != nil {
		x += complex(a.noise.NormFloat64()*a.nsig, a.noise.NormFloat64()*a.nsig)
	}
	return a.amplify(x)
}

// OutputSaturationDBm returns the block's maximum output envelope power
// (+Inf for a linear amplifier).
func (a *Amplifier) OutputSaturationDBm() float64 {
	if a.cfg.Model == Linear {
		return math.Inf(1)
	}
	return units.WattsToDBm(a.aSat * a.aSat)
}
