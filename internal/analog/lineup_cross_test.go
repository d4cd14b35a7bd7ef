package analog

import (
	"math"
	"testing"

	"wlansim/internal/rf"
)

// TestCircuitLNAMatchesBehavioral builds the behavioral LNA and the circuit
// LNA from one line-up (the latter through ConfigFor) and measures both with
// their own tone benches: rf.Characterizer on the complex envelope at the
// line-up rate, CTBench on the real passband at the solver rate. Gain, input
// 1 dB compression point, IIP3 and noise figure must agree:
//
//   - gain within 0.05 dB: both are read at -60 dBm, where either cubic is
//     linear to within 1e-4 dB and both benches read a leakage-free bin;
//   - P1dB within 0.3 dB: both cubics compress 1 dB at the same input power
//     (the circuit's is set from it, the envelope cubic's from the IIP3 by
//     the exact 9.64 dB relation), and both benches step the drive in
//     0.25 dB, so the readings differ by at most one step plus rounding;
//   - IIP3 within 0.3 dB: a cubic's IM3 rises exactly 3 dB per dB, so a
//     two-tone test 40 dB below the intercept, far below either clamp,
//     extrapolates it to within a few hundredths of a dB on either bench;
//   - NF within 0.1 dB: both noise sources are calibrated to kT(F-1) over
//     their bench bandwidth, and each bench averages about 1e5 noise
//     samples, a power estimate good to about 0.02 dB (one sigma).
func TestCircuitLNAMatchesBehavioral(t *testing.T) {
	for _, c := range []struct {
		name string
		tune func(*rf.AmplifierConfig)
	}{
		{"default line-up", func(*rf.AmplifierConfig) {}},
		{"LNA set by IIP3", func(a *rf.AmplifierConfig) {
			a.GainDB, a.NoiseFigureDB = 12, 4
			a.UseCompression, a.IIP3DBm = false, 5
		}},
	} {
		rc := rf.DefaultReceiverConfig(1)
		c.tune(&rc.LNA)
		cfg, err := ConfigFor(rc)
		if err != nil {
			t.Fatal(err)
		}
		lna, err := rf.NewAmplifier(rc.LNA)
		if err != nil {
			t.Fatal(err)
		}
		fs := cfg.InputRateHz * float64(cfg.SolverOversample)
		ct, err := NewCTNonlinearAmp(cfg.LNAGainDB, cfg.LNACompressionDBm, cfg.LNANoiseFigureDB, fs, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := NewCTNonlinearAmp(cfg.LNAGainDB, cfg.LNACompressionDBm, cfg.LNANoiseFigureDB, fs, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		bench := rf.NewCharacterizer(rc.SampleRateHz)
		ctBench := NewCTBench(fs)

		gRF := bench.MeasureGain(lna, -60)
		gCT, err := ctBench.MeasureGain(ct, 10e6, -60)
		if err != nil {
			t.Fatal(err)
		}
		p1RF, err := bench.MeasureP1dB(lna, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		p1CT, err := ctBench.MeasureP1dB(ct, 10e6, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ip3Pin := cfg.LNACompressionDBm + 9.64 - 40
		ip3RF, err := bench.MeasureIIP3(lna, ip3Pin)
		if err != nil {
			t.Fatal(err)
		}
		ip3CT, err := ctBench.MeasureIIP3(ct, 11.25e6, 2.5e6, ip3Pin)
		if err != nil {
			t.Fatal(err)
		}
		nfRF, err := bench.MeasureNoiseFigure(lna, rc.LNA.GainDB)
		if err != nil {
			t.Fatal(err)
		}
		nfCT, err := ctBench.MeasureNoiseFigure(noisy, cfg.LNAGainDB)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			what      string
			rfV, ctV  float64
			tolerance float64
		}{
			{"gain (dB)", gRF, gCT, 0.05},
			{"P1dB (dBm)", p1RF, p1CT, 0.3},
			{"IIP3 (dBm)", ip3RF, ip3CT, 0.3},
			{"NF (dB)", nfRF, nfCT, 0.1},
		} {
			if math.Abs(m.rfV-m.ctV) > m.tolerance {
				t.Errorf("%s: %s behavioral %.3f, circuit %.3f; want within %g",
					c.name, m.what, m.rfV, m.ctV, m.tolerance)
			}
		}
	}
}

// TestCircuitChebyshevMatchesBehavioral builds the behavioral channel
// filter (a digital Chebyshev at the line-up rate, prewarped to its edge)
// and the circuit one (trapezoidal stages at the solver rate) from the
// line-ups of Figure 5's edges, at the default order and Figure 5's 7th,
// and compares their responses at the passband edge, where a type-I
// Chebyshev sits at -ripple dB. The behavioral response is evaluated at the
// edge and the circuit's measured by CTBench at the bin nearest it. They
// must agree within 0.1 dB: the bin lies within 2.5 kHz of the edge, the
// trapezoidal stages at 32x oversampling move the edge by under 7 kHz
// (0.07%), and the steepest response here (7th order, 4 MHz edge) falls
// about 14 dB/MHz just past it. At half the edge both must lie in the
// ripple band, -ripple to 0 dB within 0.02 dB; where in the band differs,
// since the digital design's frequency warping moves the ripple peaks.
func TestCircuitChebyshevMatchesBehavioral(t *testing.T) {
	for _, order := range []int{5, 7} {
		for _, edge := range []float64{4e6, 6e6, 9.5e6} {
			rc := rf.DefaultReceiverConfig(1)
			rc.ChannelFilterOrder, rc.ChannelFilterEdgeHz = order, edge
			cfg, err := ConfigFor(rc)
			if err != nil {
				t.Fatal(err)
			}
			fs := cfg.InputRateHz * float64(cfg.SolverOversample)
			lpRF, err := rf.NewChebyshevLowpass(rc.ChannelFilterOrder, rc.ChannelFilterEdgeHz, rc.ChannelFilterRippleDB, rc.SampleRateHz)
			if err != nil {
				t.Fatal(err)
			}
			lpCT, err := NewCTChebyshevLowpass(cfg.ChannelFilterOrder, cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fs)
			if err != nil {
				t.Fatal(err)
			}
			ctBench := &CTBench{SampleRateHz: fs, CaptureLength: 1 << 17}
			atEdge, err := ctBench.MeasureGain(lpCT, edge, -40)
			if err != nil {
				t.Fatal(err)
			}
			if beh := lpRF.MagnitudeDB(edge, rc.SampleRateHz); math.Abs(beh-atEdge) > 0.1 {
				t.Errorf("order %d, edge %g Hz: behavioral %.3f dB, circuit %.3f dB at the edge; want within 0.1",
					order, edge, beh, atEdge)
			}
			mid, err := ctBench.MeasureGain(lpCT, edge/2, -40)
			if err != nil {
				t.Fatal(err)
			}
			ripple := rc.ChannelFilterRippleDB
			for _, r := range []struct {
				what string
				db   float64
			}{{"behavioral", lpRF.MagnitudeDB(edge/2, rc.SampleRateHz)}, {"circuit", mid}} {
				if r.db < -ripple-0.02 || r.db > 0.02 {
					t.Errorf("order %d, edge %g Hz: %s %.3f dB at half the edge, outside the %g dB ripple band",
						order, edge, r.what, r.db, ripple)
				}
			}
		}
	}
}
