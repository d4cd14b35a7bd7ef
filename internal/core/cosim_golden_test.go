package core

import (
	"math"
	"testing"

	"wlansim/internal/analog"
)

// Golden co-simulation packets. The analog solver is the slowest and most
// heavily optimized stage of the Table 2 scenario, so its output is pinned
// bit for bit: each row runs FrontEndCoSim packets end to end and compares
// the bit count, the bit errors and the Float64bits of the mean EVM against
// values recorded before the solver's block-streamed rewrite. EVM depends on
// every received sample even when a packet decodes error-free, so any
// change to the front end's arithmetic moves it.
//
// Regenerate only after an intended physics change; the failure message
// prints the measured values of every row.
var cosimGolden = []struct {
	name    string
	seed    int64
	packets int
	psdu    int
	tune    func(*analog.FrontEndConfig)
	bits    int
	errors  int
	evmBits uint64
}{
	{name: "os32/seed1", seed: 1, packets: 2, psdu: 100,
		bits: 1600, errors: 0, evmBits: 0x3fa9669465b09478},
	{name: "os32/seed2", seed: 2, packets: 2, psdu: 100,
		bits: 1600, errors: 0, evmBits: 0x3fa93c8177129e97},
	{name: "os32/seed9", seed: 9, packets: 1, psdu: 60,
		bits: 480, errors: 0, evmBits: 0x3fa0614118614806},
	// SolverOversample 16 with the noise and phase noise off is what the
	// black-box extraction drives.
	{name: "os16/seed1", seed: 1, packets: 2, psdu: 100, tune: func(c *analog.FrontEndConfig) {
		c.SolverOversample = 16
		c.EnableNoise = false
		c.LOLinewidthHz = 0
	}, bits: 1600, errors: 0, evmBits: 0x3f9152cda7b46b35},
	{name: "os16/seed5", seed: 5, packets: 1, psdu: 60, tune: func(c *analog.FrontEndConfig) {
		c.SolverOversample = 16
	}, bits: 480, errors: 0, evmBits: 0x3f9989e81d466dff},
	// Every impairment of the solver at once: LNA noise, I/Q imbalance and
	// self-mixing DC.
	{name: "os32/impaired", seed: 3, packets: 2, psdu: 80, tune: func(c *analog.FrontEndConfig) {
		c.EnableNoise = true
		c.LNANoiseFigureDB = 8
		c.IQGainImbalanceDB = 1
		c.IQPhaseErrorDeg = 4
		c.EnableDC = true
		c.DCOffsetDBm = -70
	}, bits: 1280, errors: 0, evmBits: 0x3fbd25f8b0a292d0},
}

func TestCoSimGoldenPackets(t *testing.T) {
	for _, row := range cosimGolden {
		cfg := DefaultConfig()
		cfg.FrontEnd = FrontEndCoSim
		cfg.Seed = row.seed
		cfg.Packets = row.packets
		cfg.PSDULen = row.psdu
		cfg.TuneCoSim = row.tune
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := math.Float64bits(res.EVM.RMS)
		if res.Counter.Bits != row.bits || res.Counter.Errors != row.errors || got != row.evmBits {
			t.Errorf("%s: bits %d errors %d evmBits %#x (EVM %.6g); golden bits %d errors %d evmBits %#x",
				row.name, res.Counter.Bits, res.Counter.Errors, got, res.EVM.RMS,
				row.bits, row.errors, row.evmBits)
		}
	}
}
