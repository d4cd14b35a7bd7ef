package core

import (
	"math"
	"testing"

	"wlansim/internal/kernels"
)

// Golden end-to-end BER regression points. Each row runs the full fixed-seed
// pipeline — scrambler, convolutional coder, interleaver, OFDM modulation,
// AWGN channel, synchronizing DSP receiver with soft Viterbi decoding — on
// the ideal front end and compares against the recorded BER.
//
// The simulation is bit-reproducible (per-packet seeds derive from
// (Seed, packet) via internal/seed), so on unchanged code the measured BER
// equals Golden exactly; Tol only leaves room for benign float-level drift
// (e.g. reordered summations in a future vectorization PR). A change that
// shifts any waterfall by even ~1 dB moves these mid-slope points far
// outside Tol, so performance PRs cannot silently change the physics.
//
// Regenerate after an *intended* physics change by running the bench below
// with -v (the failure message prints the measured value for every row).
var goldenBER = []struct {
	RateMbps int
	SNRdB    float64
	Golden   float64
	Tol      float64
}{
	// 6 Mbps (BPSK 1/2): the sensitivity corner. At 3 dB the limiting
	// mechanism is packet synchronization (lost packets count at the 0.5
	// guessing rate), so BER moves in quanta of 1/12 here — a sync change
	// of a single packet breaks the ±0.05 band.
	{RateMbps: 6, SNRdB: 3, Golden: 0.250000, Tol: 0.05},
	{RateMbps: 6, SNRdB: 10, Golden: 0, Tol: 0.001},
	// 24 Mbps (16-QAM 1/2): mid-slope and error-free points.
	{RateMbps: 24, SNRdB: 9, Golden: 0.175833, Tol: 0.03},
	{RateMbps: 24, SNRdB: 12, Golden: 0, Tol: 0.001},
	// 54 Mbps (64-QAM 3/4): the steep high-rate waterfall.
	{RateMbps: 54, SNRdB: 17, Golden: 0.150208, Tol: 0.03},
	{RateMbps: 54, SNRdB: 20, Golden: 0, Tol: 0.001},
}

// goldenConfig is the fixed scenario behind every golden row.
func goldenConfig(rate int, snr float64) Config {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 6
	cfg.PSDULen = 100
	cfg.Seed = 1
	cfg.RateMbps = rate
	cfg.ChannelSNRdB = &snr
	return cfg
}

func TestGoldenBERWaterfallPoints(t *testing.T) {
	for _, row := range goldenBER {
		cfg := goldenConfig(row.RateMbps, row.SNRdB)
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.BER(); math.Abs(got-row.Golden) > row.Tol {
			t.Errorf("%d Mbps at %g dB: BER %.6f, golden %.6f ± %g (%d/%d bits, %d lost)",
				row.RateMbps, row.SNRdB, got, row.Golden, row.Tol,
				res.Counter.Errors, res.Counter.Bits, res.Counter.LostPackets)
		}
		if res.Counter.Bits != cfg.Packets*cfg.PSDULen*8 {
			t.Errorf("%d Mbps at %g dB: compared %d bits, want %d — early stop or packet loss accounting changed",
				row.RateMbps, row.SNRdB, res.Counter.Bits, cfg.Packets*cfg.PSDULen*8)
		}
	}
}

// TestGoldenBERDispatchInvariant pins the assembly tier's acceptance
// criterion end to end: the golden fixed-seed scenarios at 6/24/54 Mbit/s
// must produce byte-identical error counts, packet accounting and EVM with
// the SIMD kernel tier on and off. The ideal front end exercises the Viterbi
// ACS and receiver DSP kernels; the behavioral front end adds the RF chain
// (mixers, FIR resamplers, biquads). Any lane that rounded differently under
// the assembly tier would shift at least one mid-slope error count here.
func TestGoldenBERDispatchInvariant(t *testing.T) {
	if !kernels.SIMDAvailable() {
		t.Skip("no assembly tier on this machine: both dispatch settings run pure Go")
	}
	prev := kernels.DispatchName() != "purego"
	defer kernels.SetDispatch(prev)

	run := func(rate int, snr float64, fe FrontEndKind) *Result {
		t.Helper()
		cfg := goldenConfig(rate, snr)
		cfg.FrontEnd = fe
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

	rows := []struct {
		rate int
		snr  float64
	}{{6, 3}, {24, 9}, {54, 17}}
	for _, fe := range []FrontEndKind{FrontEndIdeal, FrontEndBehavioral} {
		for _, row := range rows {
			kernels.SetDispatch(true)
			on := run(row.rate, row.snr, fe)
			kernels.SetDispatch(false)
			off := run(row.rate, row.snr, fe)
			if on.Counter != off.Counter {
				t.Errorf("front end %d, %d Mbps at %g dB: counter %+v with SIMD != %+v pure Go",
					fe, row.rate, row.snr, on.Counter, off.Counter)
			}
			if math.Float64bits(on.EVM.RMS) != math.Float64bits(off.EVM.RMS) ||
				on.EVM.Symbols != off.EVM.Symbols {
				t.Errorf("front end %d, %d Mbps at %g dB: EVM %+v with SIMD != %+v pure Go",
					fe, row.rate, row.snr, on.EVM, off.EVM)
			}
		}
	}
}

// TestGoldenBERExactReplay pins bit-exact reproducibility (not just
// tolerance-level agreement): two runs of the same golden scenario must
// agree error-for-error, and the result must not depend on the worker count
// of an enclosing sweep — here emulated by replaying one scenario between
// other runs.
func TestGoldenBERExactReplay(t *testing.T) {
	run := func() int {
		cfg := goldenConfig(54, 17)
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Counter.Errors
	}
	first := run()
	// Interleave an unrelated scenario to perturb any hidden shared state.
	if _, err := NewBench(goldenConfig(6, 4)); err != nil {
		t.Fatal(err)
	}
	if second := run(); second != first {
		t.Errorf("replay diverged: %d vs %d bit errors", first, second)
	}
}
