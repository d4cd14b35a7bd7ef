package rf

import (
	"math"
	"testing"

	"wlansim/internal/units"
)

func TestCascadeFriisKnownValues(t *testing.T) {
	// Classic example: LNA G=20/NF=2 followed by mixer G=10/NF=10.
	res, err := Cascade([]Stage{
		{Name: "lna", GainDB: 20, NoiseFigureDB: 2, IIP3DBm: math.Inf(1)},
		{Name: "mix", GainDB: 10, NoiseFigureDB: 10, IIP3DBm: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GainDB-30) > 1e-9 {
		t.Errorf("gain %v, want 30", res.GainDB)
	}
	// F = 1.5849 + (10-1)/100 = 1.6749 -> 2.24 dB.
	if math.Abs(res.NoiseFigureDB-2.24) > 0.01 {
		t.Errorf("NF %v dB, want 2.24", res.NoiseFigureDB)
	}
	if !math.IsInf(res.IIP3DBm, 1) {
		t.Errorf("IIP3 %v, want +Inf", res.IIP3DBm)
	}
}

func TestCascadeIIP3DominatedByLateStage(t *testing.T) {
	// A nonlinear stage after gain dominates the cascade IIP3.
	res, err := Cascade([]Stage{
		{Name: "lna", GainDB: 20, NoiseFigureDB: 2, IIP3DBm: 10},
		{Name: "pa", GainDB: 0, NoiseFigureDB: 10, IIP3DBm: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second stage referred to input: 0 dBm - 20 dB = -20 dBm; it dominates.
	if res.IIP3DBm > -19.5 || res.IIP3DBm < -21 {
		t.Errorf("cascade IIP3 %v dBm, want ~-20", res.IIP3DBm)
	}
}

func TestCascadeValidation(t *testing.T) {
	if _, err := Cascade(nil); err == nil {
		t.Error("accepted empty cascade")
	}
	if _, err := Cascade([]Stage{{NoiseFigureDB: -3}}); err == nil {
		t.Error("accepted NF below 0 dB")
	}
}

func TestCascadeSensitivity(t *testing.T) {
	res := CascadeResult{NoiseFigureDB: 5}
	// kTB(20 MHz) = -101 dBm; +5 NF +10 SNR = -86 dBm.
	got := res.SensitivityDBm(20e6, 10)
	if math.Abs(got+86) > 0.2 {
		t.Errorf("sensitivity %v dBm, want ~-86", got)
	}
}

func TestChebyshevLowpassHzInterface(t *testing.T) {
	f, err := NewChebyshevLowpass(5, 9e6, 0.5, 80e6)
	if err != nil {
		t.Fatal(err)
	}
	if g := f.MagnitudeDB(0, 80e6); math.Abs(g) > 0.6 {
		t.Errorf("DC gain %v dB", g)
	}
	if g := f.MagnitudeDB(9e6, 80e6); math.Abs(g+0.5) > 0.1 {
		t.Errorf("edge gain %v dB, want -0.5", g)
	}
	if g := f.MagnitudeDB(20e6, 80e6); g > -25 {
		t.Errorf("adjacent-channel rejection only %v dB", g)
	}
	if _, err := NewChebyshevLowpass(5, 9e6, 0.5, 0); err == nil {
		t.Error("accepted zero sample rate")
	}
}

func TestDCBlockHzInterface(t *testing.T) {
	f, err := NewDCBlock(150e3, 80e6)
	if err != nil {
		t.Fatal(err)
	}
	// DC decays away.
	var last complex128
	for i := 0; i < 100000; i++ {
		out := f.Process([]complex128{1})
		last = out[0]
	}
	if math.Abs(real(last)) > 1e-3 {
		t.Errorf("DC residual %v", last)
	}
	if _, err := NewDCBlock(150e3, 0); err == nil {
		t.Error("accepted zero sample rate")
	}
}

func TestReceiverOutputRateAndGeometry(t *testing.T) {
	cfg := DefaultReceiverConfig(4)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := noiseSignal(8000, -60, 11)
	out := rx.Process(in)
	if len(out) != 2000 {
		t.Errorf("output %d samples from 8000 at 4x, want 2000", len(out))
	}
	names := rx.BlockNames()
	if len(names) != 7 {
		t.Errorf("block chain %v, want 7 stages", names)
	}
}

func TestReceiverAmplifiesWeakSignalAboveNoiseFloor(t *testing.T) {
	cfg := DefaultReceiverConfig(1)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// -62 dBm in-band tone: after the chain, the AGC pulls it toward the
	// target power, and the tone dominates the output.
	in := toneAt(60000, 0.05, units.DBmToAmplitude(-62))
	out := rx.Process(in)
	settled := out[40000:]
	got := units.WattsToDBm(units.MeanPower(settled))
	if math.Abs(got-cfg.AGC.TargetDBm) > 2 {
		t.Errorf("output power %v dBm, want ~%v (AGC target)", got, cfg.AGC.TargetDBm)
	}
}

func TestReceiverDisableNoisePropagates(t *testing.T) {
	cfg := DefaultReceiverConfig(1)
	cfg.DisableNoise = true
	cfg.Mixer2.EnableDC = false
	cfg.ADC.Bits = 0
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := rx.Process(make([]complex128, 4000))
	if p := units.MeanPower(out); p != 0 {
		t.Errorf("noise-disabled receiver produced %v W from silence", p)
	}
}

func TestReceiverNoiseFloorDominatedByLNA(t *testing.T) {
	// With noise on, silence at the input produces an output noise floor;
	// the cascade NF should be within a few dB of the LNA NF.
	cfg := DefaultReceiverConfig(1)
	rx, _ := NewReceiver(cfg)
	cas, err := rx.Cascade()
	if err != nil {
		t.Fatal(err)
	}
	if cas.NoiseFigureDB < cfg.LNA.NoiseFigureDB {
		t.Errorf("cascade NF %v below LNA NF", cas.NoiseFigureDB)
	}
	if cas.NoiseFigureDB > cfg.LNA.NoiseFigureDB+2 {
		t.Errorf("cascade NF %v dB: LNA no longer dominates", cas.NoiseFigureDB)
	}
}

func TestReceiverValidation(t *testing.T) {
	cfg := DefaultReceiverConfig(1)
	cfg.Oversample = 0
	if _, err := NewReceiver(cfg); err == nil {
		t.Error("accepted zero oversample")
	}
	cfg = DefaultReceiverConfig(1)
	cfg.SampleRateHz = 0
	if _, err := NewReceiver(cfg); err == nil {
		t.Error("accepted zero sample rate")
	}
	cfg = DefaultReceiverConfig(1)
	cfg.ChannelFilterEdgeHz = 50e6 // beyond Nyquist at 20 MHz
	if _, err := NewReceiver(cfg); err == nil {
		t.Error("accepted filter edge beyond Nyquist")
	}
}

func TestIdealFrontEnd(t *testing.T) {
	fe, err := NewIdealFrontEnd(2)
	if err != nil {
		t.Fatal(err)
	}
	out := fe.Process(make([]complex128, 100))
	if len(out) != 50 {
		t.Errorf("ideal front end output %d, want 50", len(out))
	}
	fe.Reset()
	if _, err := NewIdealFrontEnd(0); err == nil {
		t.Error("accepted zero oversample")
	}
}

func TestReceiverResetReproducible(t *testing.T) {
	cfg := DefaultReceiverConfig(1)
	rx, _ := NewReceiver(cfg)
	in := noiseSignal(2000, -50, 13)
	ref := make([]complex128, len(in))
	copy(ref, in)
	out1 := rx.Process(in)
	a := make([]complex128, len(out1))
	copy(a, out1)
	rx.Reset()
	out2 := rx.Process(ref)
	for i := range a {
		if a[i] != out2[i] {
			t.Fatal("receiver not reproducible after Reset")
		}
	}
}
