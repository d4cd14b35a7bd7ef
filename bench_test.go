// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark prints the reproduced rows/series with
// -v (b.Logf) and reports headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates: Table 1 (standards), Figure 4 (spectrum with adjacent
// channel), Figure 5 (BER vs filter bandwidth), Figure 6 (BER vs LNA
// compression point), Table 2 (system-level vs co-simulation run time), the
// §5.1 IP3 sweep and noise artifact, and the §5.2 EVM measurement — plus the
// design-choice ablations called out in DESIGN.md.
package wlansim_test

import (
	"fmt"
	"math"
	"testing"

	"wlansim"
	"wlansim/internal/rf"
)

// benchPackets keeps the per-iteration cost manageable; raise it for
// tighter BER confidence.
const benchPackets = 2

func smallConfig() wlansim.Config {
	cfg := wlansim.DefaultConfig()
	cfg.Packets = benchPackets
	cfg.PSDULen = 60
	return cfg
}

func runBench(b *testing.B, cfg wlansim.Config) *wlansim.Result {
	b.Helper()
	bench, err := wlansim.NewBench(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var res *wlansim.Result
	for i := 0; i < b.N; i++ {
		res, err = bench.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1_StandardsTable regenerates the paper's Table 1.
func BenchmarkTable1_StandardsTable(b *testing.B) {
	var txt string
	for i := 0; i < b.N; i++ {
		txt = wlansim.StandardsTableText()
	}
	b.Logf("\n%s", txt)
}

// BenchmarkFigure4_SpectrumAdjacentChannel regenerates Figure 4: the OFDM
// signal with its +16 dB adjacent channel (and +32 dB second adjacent) at
// the 5.2 GHz carrier.
func BenchmarkFigure4_SpectrumAdjacentChannel(b *testing.B) {
	var report string
	var adjacentOffset float64
	for i := 0; i < b.N; i++ {
		psd, rep, err := wlansim.SpectrumExperiment(-62, true, 42)
		if err != nil {
			b.Fatal(err)
		}
		report = rep.String()
		adjacentOffset = rep.AdjacentDBm - rep.WantedDBm
		_ = psd
	}
	b.ReportMetric(adjacentOffset, "adjacent_offset_dB")
	b.Logf("Figure 4 channel powers: %s", report)
}

// BenchmarkFigure5_BERvsFilterBandwidth regenerates Figure 5: BER versus
// the Chebyshev channel-filter passband edge with the adjacent channel
// present (x axis in 1e8 Hz like the paper).
func BenchmarkFigure5_BERvsFilterBandwidth(b *testing.B) {
	base := wlansim.Figure5Config()
	base.Packets = 4
	base.PSDULen = 100
	edges := []float64{6e6, 8e6, 10e6, 12e6, 14e6, 16e6}
	var series *wlansim.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = wlansim.FilterBandwidthSweep(base, edges)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range series.Points {
		b.Logf("edge %.2fe8 Hz -> BER %.4g", p.X, p.Y)
	}
	narrow, _ := series.YAt(0.06)
	wide, _ := series.YAt(0.16)
	b.ReportMetric(narrow, "ber_narrow_6MHz")
	b.ReportMetric(series.Min().Y, "ber_best")
	b.ReportMetric(wide, "ber_wide_16MHz")
}

// BenchmarkFigure6_BERvsCompressionPoint regenerates Figure 6: BER versus
// the first LNA's 1 dB compression point, with and without the adjacent
// channel.
func BenchmarkFigure6_BERvsCompressionPoint(b *testing.B) {
	base := wlansim.Figure6Config()
	base.Packets = benchPackets
	base.PSDULen = 60
	cps := []float64{-30, -25, -20, -15, -10, -5}
	var with, without *wlansim.Series
	for i := 0; i < b.N; i++ {
		var err error
		with, err = wlansim.CompressionPointSweep(base, cps, true)
		if err != nil {
			b.Fatal(err)
		}
		without, err = wlansim.CompressionPointSweep(base, cps, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range with.Points {
		b.Logf("CP1dB %5.1f dBm -> BER %.4g (with adj) / %.4g (without)",
			p.X, p.Y, without.Points[i].Y)
	}
	low, _ := with.YAt(-30)
	high, _ := with.YAt(-5)
	b.ReportMetric(low, "ber_cp_-30dBm_adj")
	b.ReportMetric(high, "ber_cp_-5dBm_adj")
	worst := 0.0
	for _, p := range without.Points {
		worst = math.Max(worst, p.Y)
	}
	b.ReportMetric(worst, "ber_worst_no_adj")
}

// BenchmarkTable2_SystemLevel times the pure system-level (complex
// baseband) simulation per packet: the left column of Table 2.
func BenchmarkTable2_SystemLevel(b *testing.B) {
	cfg := smallConfig()
	cfg.Packets = 1
	cfg.FrontEnd = wlansim.FrontEndBehavioral
	runBench(b, cfg)
}

// BenchmarkTable2_CoSimulation times the analog co-simulation per packet:
// the right column of Table 2. The ns/op ratio against
// BenchmarkTable2_SystemLevel is this solver's slowdown (about 9x; the
// paper reports 30-40x for SpectreRF/AMS Designer).
func BenchmarkTable2_CoSimulation(b *testing.B) {
	cfg := smallConfig()
	cfg.Packets = 1
	cfg.FrontEnd = wlansim.FrontEndCoSim
	runBench(b, cfg)
}

// BenchmarkText_BERvsIP3 regenerates the §5.1 IP3 sweep.
func BenchmarkText_BERvsIP3(b *testing.B) {
	base := wlansim.Figure6Config()
	base.Packets = benchPackets
	base.PSDULen = 60
	var series *wlansim.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = wlansim.IP3Sweep(base, []float64{-20, -12, -4, 4}, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range series.Points {
		b.Logf("IIP3 %5.1f dBm -> BER %.4g", p.X, p.Y)
	}
	low, _ := series.YAt(-20)
	high, _ := series.YAt(4)
	b.ReportMetric(low, "ber_iip3_-20dBm")
	b.ReportMetric(high, "ber_iip3_+4dBm")
}

// BenchmarkText_CoSimNoiseArtifact regenerates the §4.3/§5.1 artifact: the
// co-simulation without noise functions reports a better BER than the
// noise-accurate system-level run.
func BenchmarkText_CoSimNoiseArtifact(b *testing.B) {
	base := smallConfig()
	base.WantedPowerDBm = -95
	var res wlansim.NoiseArtifactResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = wlansim.NoiseArtifactExperiment(base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("behavioral %.3g, cosim-no-noise %.3g, cosim-with-noise %.3g",
		res.BehavioralBER, res.CoSimNoNoiseBER, res.CoSimWithNoiseBER)
	b.ReportMetric(res.BehavioralBER, "ber_behavioral")
	b.ReportMetric(res.CoSimNoNoiseBER, "ber_cosim_no_noise")
	b.ReportMetric(res.CoSimWithNoiseBER, "ber_cosim_with_noise")
}

// BenchmarkText_EVMIdealReceiver regenerates the §5.2 EVM measurement with
// the ideal receiver model.
func BenchmarkText_EVMIdealReceiver(b *testing.B) {
	base := smallConfig()
	var series *wlansim.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = wlansim.EVMvsSNR(base, []float64{10, 15, 20, 25, 30, 35})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range series.Points {
		b.Logf("SNR %4.1f dB -> EVM %.2f%%", p.X, p.Y)
	}
	e20, _ := series.YAt(20)
	b.ReportMetric(e20, "evm_pct_at_20dB")
}

// BenchmarkText_KModelBlackBox times the §4 "other solution": the K-model
// black box extracted from the detailed analog receiver, running in the
// system simulation (extraction included in the first iteration's cost).
func BenchmarkText_KModelBlackBox(b *testing.B) {
	cfg := smallConfig()
	cfg.Packets = 1
	cfg.FrontEnd = wlansim.FrontEndBlackBox
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
}

// --- Design-choice ablations (DESIGN.md) ---

// BenchmarkAblation_SoftDecisions vs BenchmarkAblation_HardDecisions: the
// soft-metric Viterbi input buys ~2 dB; at the sensitivity edge that is the
// difference between a working and a broken link.
func BenchmarkAblation_SoftDecisions(b *testing.B) {
	cfg := smallConfig()
	cfg.WantedPowerDBm = -92
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
}

func BenchmarkAblation_HardDecisions(b *testing.B) {
	cfg := smallConfig()
	cfg.WantedPowerDBm = -92
	cfg.HardDecisions = true
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
}

// BenchmarkAblation_CSIWeighting vs BenchmarkAblation_NoCSIWeighting:
// per-carrier channel-state weighting of the soft metrics matters under
// frequency-selective conditions — here a deliberately narrow (6.5 MHz)
// channel filter that buries the outer subcarriers.
func narrowFilterConfig() wlansim.Config {
	cfg := wlansim.Figure5Config()
	cfg.Packets = 3
	cfg.PSDULen = 60
	prev := cfg.TuneRF
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		prev(rc)
		rc.ChannelFilterEdgeHz = 6.5e6
	}
	return cfg
}

func BenchmarkAblation_CSIWeighting(b *testing.B) {
	res := runBench(b, narrowFilterConfig())
	b.ReportMetric(res.BER(), "ber")
}

func BenchmarkAblation_NoCSIWeighting(b *testing.B) {
	cfg := narrowFilterConfig()
	cfg.DisableCSI = true
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
}

// BenchmarkAblation_AGCDisabled fixes the baseband gain instead of running
// the loop: with the +16 dB adjacent channel the ADC clips or starves.
func BenchmarkAblation_AGCDisabled(b *testing.B) {
	cfg := smallConfig()
	cfg.Interferers = []wlansim.InterfererSpec{wlansim.AdjacentChannelSpec(cfg.WantedPowerDBm)}
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		rc.AGC.Freeze = true // hold the calibrated initial gain
	}
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
	b.ReportMetric(res.EVM.Percent(), "evm_pct")
}

// BenchmarkAblation_NoInterstageHPF removes the DC-block between the mixer
// stages: the self-mixing DC offset then rides through the chain.
func BenchmarkAblation_NoInterstageHPF(b *testing.B) {
	cfg := smallConfig()
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		rc.DCBlockCornerHz = 0
		rc.Mixer1.EnableDC = true
		rc.Mixer1.DCOffsetDBm = -22 // strong stage-1 self-mixing product
	}
	res := runBench(b, cfg)
	b.ReportMetric(res.BER(), "ber")
	b.ReportMetric(res.EVM.Percent(), "evm_pct")
}

// BenchmarkAblation_Oversampling2x composes the adjacent channel on an
// undersized grid — rejected by the composer, demonstrating the §4.1
// sampling-theorem requirement (the measurement falls back to the minimum
// legal factor and reports it).
func BenchmarkAblation_Oversampling2x(b *testing.B) {
	cfg := smallConfig()
	cfg.Interferers = []wlansim.InterfererSpec{wlansim.AdjacentChannelSpec(cfg.WantedPowerDBm)}
	res := runBench(b, cfg)
	b.ReportMetric(float64(res.OversampleFactor), "oversample_factor")
	b.ReportMetric(res.BER(), "ber")
}

// --- Micro-benchmarks of the hot kernels ---

func BenchmarkKernel_TransmitPacket(b *testing.B) {
	tx, err := wlansim.NewTransmitter(54)
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1000)
	b.SetBytes(1000)
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(psdu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_ReceivePacket(b *testing.B) {
	tx, err := wlansim.NewTransmitter(54)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := tx.Transmit(make([]byte, 1000))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 200+len(frame.Samples)+100)
	copy(x[200:], frame.Samples)
	rx := wlansim.NewPacketReceiver()
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rx.Receive(x, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_RFFrontEnd(b *testing.B) {
	rxCfg := wlansim.DefaultReceiverConfig(1)
	fe, err := wlansim.NewRFReceiver(rxCfg)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(1e-4, -1e-4)
	}
	b.SetBytes(int64(len(x) * 16))
	for i := 0; i < b.N; i++ {
		buf := make([]complex128, len(x))
		copy(buf, x)
		fe.Process(buf)
	}
}

func BenchmarkKernel_AnalogSolver(b *testing.B) {
	cfg := wlansim.DefaultAnalogFrontEndConfig()
	fe, err := wlansim.NewAnalogFrontEnd(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 2048)
	for i := range x {
		x[i] = complex(1e-4, 1e-4)
	}
	b.SetBytes(int64(len(x) * 16))
	for i := 0; i < b.N; i++ {
		buf := make([]complex128, len(x))
		copy(buf, x)
		fe.Process(buf)
	}
}

// sanity check that the benchmark harness agrees with the test suite on the
// headline reproduction claims (runs as a test, not a benchmark).
func TestBenchmarkScenariosSane(t *testing.T) {
	cfg := smallConfig()
	bench, err := wlansim.NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("baseline scenario BER %v", res.BER())
	}
	fmt.Println("baseline:", res.Counter.String())
}
