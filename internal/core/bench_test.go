package core

import (
	"math"
	"strings"
	"testing"

	"wlansim/internal/analog"
	"wlansim/internal/rf"
)

func TestNewBenchValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PSDULen = 0
	if _, err := NewBench(cfg); err == nil {
		t.Error("accepted zero PSDU length")
	}
	cfg = DefaultConfig()
	cfg.Packets = 0
	if _, err := NewBench(cfg); err == nil {
		t.Error("accepted zero packets")
	}
	cfg = DefaultConfig()
	cfg.RateMbps = 17
	if _, err := NewBench(cfg); err == nil {
		t.Error("accepted invalid rate")
	}
	cfg = DefaultConfig()
	cfg.Interferers = []InterfererSpec{{OffsetHz: 20e6, RateMbps: 5}}
	if _, err := NewBench(cfg); err == nil {
		t.Error("accepted interferer with invalid rate")
	}
	cfg = DefaultConfig()
	cfg.UseIdealRxTiming = true // requires ideal front end
	if _, err := NewBench(cfg); err == nil {
		t.Error("accepted ideal timing with behavioral front end")
	}
}

func TestBenchIdealFrontEndErrorFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 3
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("ideal front end BER %v", res.BER())
	}
	if res.Counter.Packets != 3 {
		t.Errorf("packets %d", res.Counter.Packets)
	}
	if res.OversampleFactor != 1 {
		t.Errorf("oversample %d without interferers", res.OversampleFactor)
	}
}

func TestBenchBehavioralDecodesAtNominalPower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 3
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("behavioral BER %v at -62 dBm (well above sensitivity)", res.BER())
	}
	// The behavioral chain adds impairments: EVM must be nonzero but sane.
	if res.EVM.RMS <= 0 || res.EVM.Percent() > 15 {
		t.Errorf("EVM %v implausible", res.EVM)
	}
}

func TestBenchCoSimDecodesAtNominalPower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndCoSim
	cfg.Packets = 2
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("cosim BER %v at -62 dBm", res.BER())
	}
}

func TestBenchAdjacentChannelOversamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.Interferers = []InterfererSpec{AdjacentChannelSpec(cfg.WantedPowerDBm)}
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OversampleFactor != 3 {
		t.Errorf("oversample %d for a 20 MHz offset, want 3", res.OversampleFactor)
	}
	// Default filter handles the adjacent channel at nominal power.
	if res.BER() > 0.01 {
		t.Errorf("BER %v with adjacent channel at nominal settings", res.BER())
	}
}

func TestBenchBelowSensitivityFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.WantedPowerDBm = -97
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() < 0.05 {
		t.Errorf("BER %v at -97 dBm: receiver noise seems missing", res.BER())
	}
}

func TestBenchDeterministicBySeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.WantedPowerDBm = -90 // noisy regime so randomness matters
	run := func() float64 {
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.BER()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different BER: %v vs %v", a, b)
	}
}

func TestBenchReportsEVMDegradationWithImpairments(t *testing.T) {
	clean := DefaultConfig()
	clean.FrontEnd = FrontEndIdeal
	clean.Packets = 2
	b1, _ := NewBench(clean)
	r1, err := b1.Run()
	if err != nil {
		t.Fatal(err)
	}
	dirty := DefaultConfig()
	dirty.Packets = 2
	b2, _ := NewBench(dirty)
	r2, err := b2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.EVM.RMS <= r1.EVM.RMS {
		t.Errorf("behavioral EVM %v not worse than ideal %v", r2.EVM.RMS, r1.EVM.RMS)
	}
}

func TestFrontEndKindString(t *testing.T) {
	if FrontEndIdeal.String() != "ideal" ||
		FrontEndBehavioral.String() != "behavioral-baseband" ||
		FrontEndCoSim.String() != "analog-cosim" ||
		FrontEndKind(9).String() != "?" {
		t.Error("FrontEndKind names wrong")
	}
}

func TestInterfererSpecs(t *testing.T) {
	a := AdjacentChannelSpec(-60)
	if a.OffsetHz != 20e6 || a.PowerDBm != -44 {
		t.Errorf("adjacent spec %+v", a)
	}
	s := SecondAdjacentChannelSpec(-60)
	if s.OffsetHz != 40e6 || s.PowerDBm != -28 {
		t.Errorf("second adjacent spec %+v", s)
	}
}

func TestTuneRFAndCoSimHooksApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 1
	called := false
	cfg.TuneRF = func(rc *rf.ReceiverConfig) { called = true }
	bench, _ := NewBench(cfg)
	if _, err := bench.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("TuneRF not invoked")
	}
	cfg = DefaultConfig()
	cfg.FrontEnd = FrontEndCoSim
	cfg.Packets = 1
	calledCS := false
	cfg.TuneCoSim = func(c *analog.FrontEndConfig) { calledCS = true }
	bench, _ = NewBench(cfg)
	if _, err := bench.Run(); err != nil {
		t.Fatal(err)
	}
	if !calledCS {
		t.Error("TuneCoSim not invoked")
	}
}

func TestStandardsTableText(t *testing.T) {
	txt := StandardsTableText()
	for _, want := range []string{"802.11a", "5.2", "54", "1999", "expect."} {
		if !strings.Contains(txt, want) {
			t.Errorf("table text missing %q", want)
		}
	}
}

func TestBenchHardDecisionsWorseAtLowSNR(t *testing.T) {
	base := DefaultConfig()
	base.Packets = 3
	base.WantedPowerDBm = -90 // near the decode cliff
	soft := base
	hard := base
	hard.HardDecisions = true
	bs, _ := NewBench(soft)
	rs, err := bs.Run()
	if err != nil {
		t.Fatal(err)
	}
	bh, _ := NewBench(hard)
	rh, err := bh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rh.BER() < rs.BER() {
		t.Errorf("hard decisions (%v) beat soft decisions (%v)", rh.BER(), rs.BER())
	}
}

func TestBenchChannelSNRApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 2
	low := 3.0
	cfg.ChannelSNRdB = &low
	bench, _ := NewBench(cfg)
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() < 0.05 {
		t.Errorf("BER %v at 3 dB SNR should be high", res.BER())
	}
}

func TestBenchCFOTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.CFOHz = 120e3 // ~23 ppm at 5.2 GHz, within 802.11a tolerance
	bench, _ := NewBench(cfg)
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("BER %v with a tolerable CFO", res.BER())
	}
}

func TestBenchMultipathTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 4
	cfg.RateMbps = 12 // robust mode over fading
	cfg.MultipathTaps = 4
	cfg.MultipathRMSSamples = 1.5
	bench, _ := NewBench(cfg)
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Block-fading Rayleigh: occasional deep fades may lose a packet, but
	// the majority must survive at 12 Mbps.
	if res.Counter.PER() > 0.5 {
		t.Errorf("PER %v over mild multipath", res.Counter.PER())
	}
}

func TestResultBERAccessor(t *testing.T) {
	var r Result
	if r.BER() != 0 {
		t.Error("empty result BER != 0")
	}
	if math.IsNaN(r.BER()) {
		t.Error("NaN BER")
	}
}

func TestBenchDopplerFadingTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 4
	cfg.RateMbps = 12
	cfg.MultipathTaps = 3
	cfg.MultipathRMSSamples = 1.5
	cfg.DopplerHz = 200 // pedestrian-speed fading at 5.2 GHz
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.PER() > 0.5 {
		t.Errorf("PER %v under slow Doppler fading", res.Counter.PER())
	}
}

func TestBenchSampleClockOffsetTolerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.SampleClockPPM = 40 // clause-17 worst-case mismatch
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("BER %v under +-40 ppm clock offset", res.BER())
	}
}

func TestEVMBudgetDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("budget too slow for -short")
	}
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 60
	rows, err := EVMBudget(base)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]EVMBudgetRow{}
	for _, r := range rows {
		byName[r.Impairment] = r
	}
	residual := byName["none (residual)"]
	all := byName["all impairments"]
	if residual.EVMPercent <= 0 {
		t.Error("residual EVM should be positive (AGC/filter effects)")
	}
	if all.EVMPercent <= residual.EVMPercent {
		t.Errorf("all-impairments EVM %v not above residual %v",
			all.EVMPercent, residual.EVMPercent)
	}
	// Each single impairment lies between residual and all-on.
	for _, name := range []string{"thermal noise", "LO phase noise", "I/Q imbalance"} {
		r := byName[name]
		if r.EVMPercent < residual.EVMPercent-0.3 || r.EVMPercent > all.EVMPercent+0.3 {
			t.Errorf("%s EVM %v outside [residual %v, all %v]",
				name, r.EVMPercent, residual.EVMPercent, all.EVMPercent)
		}
	}
	if !strings.Contains(FormatEVMBudget(rows), "impairment") {
		t.Error("budget formatting broken")
	}
}

func TestBenchBlackBoxFrontEndDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("extraction too slow for -short")
	}
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndBlackBox
	cfg.Packets = 2
	cfg.PSDULen = 60
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("black-box front end BER %v at nominal power", res.BER())
	}
	if res.FrontEnd.String() != "kmodel-blackbox" {
		t.Errorf("front end kind %v", res.FrontEnd)
	}
}

// TestResultOutcomesSumToPackets checks the packet-outcome tally: on a
// clean link every packet is clean; across the sync cliff the outcomes sum
// to the packets run, the sync and SIGNAL failures are among the counter's
// lost packets, and no packet the counter saw with a bit error is clean.
func TestResultOutcomesSumToPackets(t *testing.T) {
	run := func(cfg Config) *Result {
		t.Helper()
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cfg := DefaultConfig()
	cfg.Packets = 3
	if o := run(cfg).Outcomes; o != (PacketOutcomes{Clean: 3}) {
		t.Errorf("nominal link outcomes %+v, want 3 clean", o)
	}
	seen := PacketOutcomes{}
	for _, snr := range []float64{0, 3, 6, 9} {
		c := cfg
		c.Packets = 12
		c.ChannelSNRdB = &snr
		res := run(c)
		o, n := res.Outcomes, res.Counter
		if o.Total() != c.Packets || n.Packets != c.Packets {
			t.Fatalf("SNR %g dB: outcomes %+v sum to %d, counter %d, want %d", snr, o, o.Total(), n.Packets, c.Packets)
		}
		if failed := o.SyncMiss + o.SignalFail; failed > n.LostPackets || o.Clean > c.Packets-n.PacketErrors {
			t.Fatalf("SNR %g dB: outcomes %+v disagree with counter %+v", snr, o, n)
		}
		seen.SyncMiss += o.SyncMiss
		seen.Clean += o.Clean
		seen.PayloadErrors += o.PayloadErrors
	}
	if seen.SyncMiss == 0 || seen.Clean == 0 || seen.PayloadErrors == 0 {
		t.Errorf("the SNR sweep exercised too few outcomes: %+v", seen)
	}
}
