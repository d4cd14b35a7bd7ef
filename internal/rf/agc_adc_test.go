package rf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/kernels"
	"wlansim/internal/units"
)

func noiseSignal(n int, powerDBm float64, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	s := units.DBmToAmplitude(powerDBm) / math.Sqrt2
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64()*s, r.NormFloat64()*s)
	}
	return x
}

func TestAGCConvergesToTarget(t *testing.T) {
	a, err := NewAGC(AGCConfig{
		TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40, TimeConstantSamples: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := noiseSignal(20000, -30, 1)
	out := a.Process(x)
	// After settling, output power near the target. The asymmetric
	// attack/release loop biases a couple of dB low on noise-like signals.
	if got := units.WattsToDBm(units.MeanPower(out[15000:])); math.Abs(got+10) > 3 {
		t.Errorf("settled output %v dBm, want ~-10", got)
	}
	if g := a.GainDB(); math.Abs(g-20) > 3 {
		t.Errorf("AGC gain %v dB, want ~20", g)
	}
}

func TestAGCGainClamped(t *testing.T) {
	a, _ := NewAGC(AGCConfig{
		TargetDBm: 0, MinGainDB: -10, MaxGainDB: 10, TimeConstantSamples: 16,
	})
	// Very weak input: gain rails at max.
	a.Process(noiseSignal(5000, -80, 2))
	if g := a.GainDB(); g != 10 {
		t.Errorf("gain %v, want railed at 10", g)
	}
	a.Reset()
	// Very strong input: gain rails at min.
	a.Process(noiseSignal(5000, 40, 3))
	if g := a.GainDB(); g != -10 {
		t.Errorf("gain %v, want railed at -10", g)
	}
}

func TestAGCFreezeHoldsGain(t *testing.T) {
	a, _ := NewAGC(AGCConfig{
		TargetDBm: -10, MinGainDB: -40, MaxGainDB: 40,
		TimeConstantSamples: 32, InitialGainDB: 5, Freeze: true,
	})
	a.Process(noiseSignal(5000, -60, 4))
	if g := a.GainDB(); g != 5 {
		t.Errorf("frozen gain moved to %v", g)
	}
	a.SetFreeze(false)
	a.Process(noiseSignal(5000, -60, 5))
	if g := a.GainDB(); g == 5 {
		t.Error("unfrozen gain did not adapt")
	}
}

func TestAGCValidation(t *testing.T) {
	if _, err := NewAGC(AGCConfig{MinGainDB: 10, MaxGainDB: -10}); err == nil {
		t.Error("accepted inverted gain bounds")
	}
}

func TestADCQuantizationStep(t *testing.T) {
	a, err := NewADC(ADCConfig{Bits: 8, FullScaleDBm: 0})
	if err != nil {
		t.Fatal(err)
	}
	fsAmp := units.DBmToAmplitude(0)
	step := 2 * fsAmp / 256
	// Two inputs inside the same quantization cell map to the same output.
	y1 := a.ProcessSample(complex(step*10.1, 0))
	y2 := a.ProcessSample(complex(step*10.4, 0))
	if y1 != y2 {
		t.Errorf("same-cell inputs quantized differently: %v vs %v", y1, y2)
	}
	y3 := a.ProcessSample(complex(step*11.2, 0))
	if y1 == y3 {
		t.Error("adjacent cells quantized identically")
	}
}

func TestADCClippingCounter(t *testing.T) {
	a, _ := NewADC(ADCConfig{Bits: 10, FullScaleDBm: -20})
	fsAmp := units.DBmToAmplitude(-20)
	x := []complex128{
		complex(fsAmp*2, 0),       // clips I
		complex(0, -fsAmp*3),      // clips Q
		complex(fsAmp/2, fsAmp/2), // inside
	}
	a.Process(x)
	if got := a.ClippedSamples(); got != 2 {
		t.Errorf("clipped %d, want 2", got)
	}
	a.Reset()
	if a.ClippedSamples() != 0 {
		t.Error("Reset did not clear the clip counter")
	}
	// Clipped samples are bounded by the full scale.
	if math.Abs(real(x[0])) > fsAmp {
		t.Errorf("clipped output %v exceeds full scale", x[0])
	}
}

func TestADCSNRScalesWithBits(t *testing.T) {
	// Quantization SNR improves ~6 dB per bit.
	snr := func(bits int) float64 {
		a, _ := NewADC(ADCConfig{Bits: bits, FullScaleDBm: 0})
		in := noiseSignal(50000, -12, 6) // keep clipping rare
		ref := make([]complex128, len(in))
		copy(ref, in)
		a.Process(in)
		var sp, np float64
		for i := range in {
			d := in[i] - ref[i]
			sp += real(ref[i])*real(ref[i]) + imag(ref[i])*imag(ref[i])
			np += real(d)*real(d) + imag(d)*imag(d)
		}
		return units.LinearToDB(sp / np)
	}
	s8 := snr(8)
	s12 := snr(12)
	if d := s12 - s8; math.Abs(d-24) > 3 {
		t.Errorf("SNR delta for 4 extra bits = %v dB, want ~24", d)
	}
}

func TestADCZeroBitsIsClipperOnly(t *testing.T) {
	a, _ := NewADC(ADCConfig{Bits: 0, FullScaleDBm: 0})
	in := complex(0.001, -0.002)
	if got := a.ProcessSample(in); got != in {
		t.Errorf("0-bit ADC altered in-range sample: %v", got)
	}
}

func TestADCValidation(t *testing.T) {
	if _, err := NewADC(ADCConfig{Bits: -1}); err == nil {
		t.Error("accepted negative bits")
	}
	if _, err := NewADC(ADCConfig{Bits: 32}); err == nil {
		t.Error("accepted absurd resolution")
	}
}

// BenchmarkAGCLanes times the AGC lane law on Figure 5-shaped AGC inputs —
// a 5247-sample pre-filter frame through lane l's channel-select filter,
// edges spread over 6-14 MHz — at 1, 3, 4, 6 (one Figure 5 group) and 8
// lanes, in ns per sample-lane on the active kernel tier.
func BenchmarkAGCLanes(b *testing.B) {
	for _, L := range []int{1, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			edges := make([]float64, L)
			for l := range edges {
				edges[l] = 6e6 + 8e6*float64(l)/float64(max(L-1, 1))
			}
			rx, cfgs, src := fig5Lanes(b, edges)
			in := make([][]complex128, L)
			for l, cfg := range cfgs {
				ch, err := NewChebyshevLowpass(cfg.ChannelFilterOrder, cfg.ChannelFilterEdgeHz,
					cfg.ChannelFilterRippleDB, cfg.SampleRateHz)
				if err != nil {
					b.Fatal(err)
				}
				in[l] = ch.Process(append([]complex128(nil), src...))
			}
			lanes := make([][]complex128, L)
			for l := range lanes {
				lanes[l] = make([]complex128, len(src))
			}
			st := make([]kernels.AGCLane, L)
			agc := rx.agc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range lanes {
					copy(lanes[l], in[l])
					agc.resetLane(&st[l])
				}
				kernels.AGCLanes(lanes, st, &agc.law)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*L*len(src)), "ns/sample-lane")
		})
	}
}
