package core

import (
	"fmt"
	"math"
	"math/rand"

	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
	"wlansim/internal/rxdsp"
	"wlansim/internal/sim"
	"wlansim/internal/units"
)

// This file realizes the paper's Figure 3 as an explicit block diagram: the
// wanted transmitter, the duplicated frequency-shifted interferer
// transmitters, the channel summation and the double-conversion RF receiver
// are wired as sim.Graph blocks and executed by the frame scheduler — the
// SPW-style top-level schematic, as opposed to Bench.Run's direct calls.

// SystemGraph is a runnable block-diagram realization of a scenario.
type SystemGraph struct {
	// Graph is the wired diagram (inspect BlockNames for the schedule).
	Graph *sim.Graph
	// AntennaProbe records the composite antenna signal.
	AntennaProbe *sim.Probe
	// BasebandProbe records the 20 MHz front-end output.
	BasebandProbe *sim.Probe

	frameLen int
	frames   []*phy.Frame
	baseband *[]complex128
	bench    *Bench
}

// BuildSystemGraph wires the scenario as a block diagram. Multipath and
// ideal-timing options are not supported in graph form (use Bench.Run).
func (b *Bench) BuildSystemGraph() (*SystemGraph, error) {
	cfg := b.cfg
	if cfg.UseIdealRxTiming {
		return nil, fmt.Errorf("core: graph execution needs the synchronizing receiver")
	}
	if cfg.MultipathTaps > 0 {
		return nil, fmt.Errorf("core: multipath not supported in graph form")
	}
	os := b.oversample()
	fe, err := b.buildFrontEnd(os)
	if err != nil {
		return nil, err
	}
	mode, err := phy.ModeByRate(cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tx := &phy.Transmitter{Mode: mode}

	g := sim.NewGraph()
	sys := &SystemGraph{Graph: g, frameLen: 200, bench: b}

	// Wanted transmitter: all packets back to back with lead-in/tail gaps.
	var wanted []complex128
	wanted = append(wanted, make([]complex128, leadInSamples)...)
	for p := 0; p < cfg.Packets; p++ {
		tx.ScramblerSeed = byte(1 + rng.Intn(127))
		frame, err := tx.Transmit(bits.RandomBytes(rng, cfg.PSDULen))
		if err != nil {
			return nil, err
		}
		sys.frames = append(sys.frames, frame)
		wanted = append(wanted, frame.Samples...)
		wanted = append(wanted, make([]complex128, leadInSamples)...)
	}
	total := len(wanted) + tailSamples
	wantedGain := math.Sqrt(units.DBmToWatts(cfg.WantedPowerDBm))
	// Frame power of the PPDU is ~1 by construction; derive the exact gain
	// from the first frame for accuracy.
	if len(sys.frames) > 0 {
		p := units.MeanPower(sys.frames[0].Samples)
		if p > 0 {
			wantedGain = math.Sqrt(units.DBmToWatts(cfg.WantedPowerDBm) / p)
		}
	}

	if err := g.AddSource("tx-wanted", sim.SliceSource(wanted, total)); err != nil {
		return nil, err
	}
	if err := g.AddBlock("scale-wanted", 1, 1, sim.GainBlock(complex(wantedGain, 0))); err != nil {
		return nil, err
	}
	up, err := dsp.NewUpsampler(os, 0)
	if err != nil {
		return nil, err
	}
	if err := g.AddBlock("up-wanted", 1, 1, sim.UpsamplerBlock(up)); err != nil {
		return nil, err
	}
	if err := g.Connect("tx-wanted", 0, "scale-wanted", 0); err != nil {
		return nil, err
	}
	if err := g.Connect("scale-wanted", 0, "up-wanted", 0); err != nil {
		return nil, err
	}

	fsComposite := 20e6 * float64(os)
	nIn := 1 + len(cfg.Interferers)
	if err := g.AddBlock("air-sum", nIn, 1, sim.AdderBlock(nIn)); err != nil {
		return nil, err
	}
	if err := g.Connect("up-wanted", 0, "air-sum", 0); err != nil {
		return nil, err
	}

	var synth interfererSynth
	for k, spec := range cfg.Interferers {
		wave, err := synth.wave(k, spec.RateMbps, total, rng)
		if err != nil {
			return nil, err
		}
		p := units.MeanPower(wave)
		gI := math.Sqrt(units.DBmToWatts(spec.PowerDBm) / p)
		name := fmt.Sprintf("tx-adjacent-%d", k)
		if err := g.AddSource(name, sim.SliceSource(wave, total)); err != nil {
			return nil, err
		}
		if err := g.AddBlock("scale-"+name, 1, 1, sim.GainBlock(complex(gI, 0))); err != nil {
			return nil, err
		}
		upI, err := dsp.NewUpsampler(os, 0)
		if err != nil {
			return nil, err
		}
		if err := g.AddBlock("up-"+name, 1, 1, sim.UpsamplerBlock(upI)); err != nil {
			return nil, err
		}
		if err := g.AddBlock("shift-"+name, 1, 1, sim.FrequencyShiftBlock(spec.OffsetHz/fsComposite)); err != nil {
			return nil, err
		}
		for _, c := range [][2]string{
			{name, "scale-" + name}, {"scale-" + name, "up-" + name},
			{"up-" + name, "shift-" + name},
		} {
			if err := g.Connect(c[0], 0, c[1], 0); err != nil {
				return nil, err
			}
		}
		if err := g.Connect("shift-"+name, 0, "air-sum", k+1); err != nil {
			return nil, err
		}
	}

	// Optional channel noise on the composite.
	antennaOut := "air-sum"
	if cfg.ChannelSNRdB != nil {
		noiseW := units.DBmToWatts(cfg.WantedPowerDBm) / units.DBToLinear(*cfg.ChannelSNRdB) * float64(os)
		if err := g.AddBlock("awgn", 1, 1, sim.AWGNBlock(channel.NewAWGN(noiseW, rng.Int63()))); err != nil {
			return nil, err
		}
		if err := g.Connect("air-sum", 0, "awgn", 0); err != nil {
			return nil, err
		}
		antennaOut = "awgn"
	}

	if err := g.AddBlock("rf-frontend", 1, 1, sim.ProcessorBlock(fe)); err != nil {
		return nil, err
	}
	if err := g.Connect(antennaOut, 0, "rf-frontend", 0); err != nil {
		return nil, err
	}

	var baseband []complex128
	sys.baseband = &baseband
	if err := g.AddSink("adc-capture", func(f []complex128) error {
		baseband = append(baseband, f...)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := g.Connect("rf-frontend", 0, "adc-capture", 0); err != nil {
		return nil, err
	}

	if sys.AntennaProbe, err = g.AddProbe("antenna", antennaOut, 0); err != nil {
		return nil, err
	}
	sys.AntennaProbe.Enabled = false // deselected by default (§5.1)
	if sys.BasebandProbe, err = g.AddProbe("baseband", "rf-frontend", 0); err != nil {
		return nil, err
	}
	sys.BasebandProbe.Enabled = false
	return sys, nil
}

// Run schedules the diagram to completion and decodes the captured
// baseband, returning the same statistics as Bench.Run: every packet is
// accounted by the Bench's own rule (accountPacket), so the EVM is the
// symbol-weighted RMS over delivered packets and TargetErrors stops the
// decode loop as it stops Bench.Run's packet loop.
func (s *SystemGraph) Run() (*Result, error) {
	if _, err := s.Graph.Run(s.frameLen, 0); err != nil {
		return nil, err
	}
	cfg := s.bench.cfg
	res := &Result{FrontEnd: cfg.FrontEnd}
	var evm evmAccum
	rx := rxdsp.NewReceiver()
	rx.HardDecisions = cfg.HardDecisions
	rx.DisableCSI = cfg.DisableCSI
	from := 0
	for _, frame := range s.frames {
		pkt, err := rx.Receive(*s.baseband, from)
		if err == nil {
			from = pkt.EndIndex
		}
		if s.bench.accountPacket(pkt, err, bits.FromBytes(frame.PSDU), frame.Mode, res, &evm) {
			break
		}
	}
	evm.finish(res)
	return res, nil
}
