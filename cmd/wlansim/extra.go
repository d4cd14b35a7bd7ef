package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"wlansim/internal/analog"
	"wlansim/internal/bits"
	"wlansim/internal/core"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
	"wlansim/internal/rf"
	"wlansim/internal/sim"
)

// cmdWaterfall prints BER-vs-SNR curves for a set of rates (ideal front
// end by default; -behavioral runs the full analog line-up, where the SNR
// points of a curve run as the lanes of one lock-step pipeline).
func cmdWaterfall(args []string) error {
	fs := flag.NewFlagSet("waterfall", flag.ExitOnError)
	cfg := benchFlags(fs, "len packets seed power workers target-errors cache-bytes no-stage-cache")
	lo := fs.Float64("from", 2, "lowest SNR (dB)")
	hi := fs.Float64("to", 30, "highest SNR (dB)")
	n := fs.Int("points", 8, "sweep points")
	behavioral := fs.Bool("behavioral", false, "run the behavioral analog front end instead of the ideal one")
	format := formatFlag(fs)
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := cfg.Config
	fe, feName := core.FrontEndIdeal, "ideal"
	if *behavioral {
		fe, feName = core.FrontEndBehavioral, "behavioral"
	}
	fig, err := core.WaterfallBERvsSNROnFrontEnd(base, fe, []int{6, 12, 24, 54}, sim.Linspace(*lo, *hi, *n))
	if err != nil {
		return err
	}
	fig.Title = fmt.Sprintf("BER vs SNR per 802.11a mode (%s front end)", feName)
	return emitFigure(fig, *format)
}

// cmdSensitivity bisects for the receiver sensitivity at a rate.
func cmdSensitivity(args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed target-errors")
	per := fs.Float64("per", 0.1, "target packet error rate")
	if err := cfg.parse(args); err != nil {
		return err
	}
	sens, err := core.SensitivitySearch(cfg.Config, *per, 0.5)
	if err != nil {
		return err
	}
	fmt.Printf("%d Mbps sensitivity (PER <= %g): %.1f dBm\n", cfg.RateMbps, *per, sens)
	return nil
}

// cmdInputRange verifies the paper's -88..-23 dBm wanted input range.
func cmdInputRange(args []string) error {
	fs := flag.NewFlagSet("inputrange", flag.ExitOnError)
	cfg := benchFlags(fs, "len packets seed target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	res, err := core.InputRangeCheck(cfg.Config)
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}

// cmdRFCheck characterizes the behavioral RF blocks against their
// configuration (the SpectreRF-style tone-test analyses).
func cmdRFCheck(args []string) error {
	fs := flag.NewFlagSet("rfcheck", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rxCfg := rf.DefaultReceiverConfig(1)
	bench := rf.NewCharacterizer(rxCfg.SampleRateHz)

	lna, err := rf.NewAmplifier(rxCfg.LNA)
	if err != nil {
		return err
	}
	// The circuit model of the same line-up; its LNA compression point is
	// the configured one, or the cubic's from the configured IIP3.
	aCfg, err := analog.ConfigFor(rxCfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s (configured: gain %g dB, NF %g dB, CP1dB %g dBm):\n",
		rxCfg.LNA.Name, rxCfg.LNA.GainDB, rxCfg.LNA.NoiseFigureDB, aCfg.LNACompressionDBm)
	fmt.Println("  measured:", bench.Characterize(lna))

	mix2, err := rf.NewMixer(rxCfg.Mixer2)
	if err != nil {
		return err
	}
	irr, err := bench.MeasureImageRejection(mix2, -40)
	if err != nil {
		return err
	}
	fmt.Printf("MIX2 image rejection: measured %.1f dB (model %.1f dB)\n",
		irr, mix2.ImageRejectionDB())

	// The same LNA in the continuous-time solver, measured with the
	// passband two-tone bench.
	fsSolver := aCfg.InputRateHz * float64(aCfg.SolverOversample)
	ctLNA, err := analog.NewCTNonlinearAmp(aCfg.LNAGainDB, aCfg.LNACompressionDBm,
		aCfg.LNANoiseFigureDB, fsSolver, 1, false)
	if err != nil {
		return err
	}
	ctBench := analog.NewCTBench(fsSolver)
	g, err := ctBench.MeasureGain(ctLNA, 10e6, -60)
	if err != nil {
		return err
	}
	p1, err := ctBench.MeasureP1dB(ctLNA, 10e6, 0.25)
	if err != nil {
		return err
	}
	ip3, err := ctBench.MeasureIIP3(ctLNA, 11.25e6, 2.5e6, -40)
	if err != nil {
		return err
	}
	fmt.Printf("CT-solver LNA: gain %.2f dB, P1dB %.2f dBm, IIP3 %.2f dBm (two-tone bench)\n", g, p1, ip3)
	return nil
}

// cmdMask checks a transmit waveform against the clause-17 spectral mask.
func cmdMask(args []string) error {
	fs := flag.NewFlagSet("mask", flag.ExitOnError)
	rate := fs.Int("rate", 24, "data rate (Mbps)")
	clip := fs.Float64("clip", 0, "clip the waveform at this fraction of its peak (0 = no clipping)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tx, err := phy.NewTransmitter(*rate)
	if err != nil {
		return err
	}
	frame, err := tx.Transmit(bits.RandomBytes(rand.New(rand.NewSource(1)), 400))
	if err != nil {
		return err
	}
	up, err := dsp.NewUpsampler(4, 255)
	if err != nil {
		return err
	}
	x := up.Process(frame.Samples)
	if *clip > 0 && *clip < 1 {
		var peak float64
		for _, v := range x {
			if a := real(v)*real(v) + imag(v)*imag(v); a > peak {
				peak = a
			}
		}
		// Clip the power at level: an over-level sample keeps its phase
		// and is scaled by the amplitude ratio.
		level := *clip * peak
		for i, v := range x {
			if a := real(v)*real(v) + imag(v)*imag(v); a > level {
				x[i] = v * complex(math.Sqrt(level/a), 0)
			}
		}
	}
	viol, err := phy.TransmitMask().CheckMask(x, 80e6)
	if err != nil {
		return err
	}
	if len(viol) == 0 {
		fmt.Println("transmit spectrum mask: PASS")
		return nil
	}
	fmt.Printf("transmit spectrum mask: FAIL (%d bins)\n", len(viol))
	shown := 0
	for _, v := range viol {
		fmt.Printf("  %+.1f MHz: %.1f dBr (limit %.1f, excess %.1f dB)\n",
			v.OffsetHz/1e6, v.MeasuredDBr, v.LimitDBr, v.ExcessDB())
		shown++
		if shown >= 10 {
			fmt.Printf("  ... and %d more\n", len(viol)-shown)
			break
		}
	}
	// A failed check is an error, so the command exits non-zero.
	return fmt.Errorf("transmit spectrum mask: %d bins over the limit", len(viol))
}

// cmdReport runs the aggregated receiver sign-off suite; a failed item is
// an error, so the command exits non-zero.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	rep, err := core.RunVerificationReport(cfg.Config)
	if err != nil {
		return err
	}
	fmt.Println("RF subsystem verification report:")
	fmt.Print(rep.String())
	if rep.Pass() {
		return nil
	}
	var failed []string
	for _, it := range rep.Items {
		if !it.Pass {
			failed = append(failed, it.Name)
		}
	}
	return fmt.Errorf("verification report failed: %s", strings.Join(failed, ", "))
}

// cmdRegrowth sweeps PA backoff against the clause-17 transmit mask.
func cmdRegrowth(args []string) error {
	fs := flag.NewFlagSet("regrowth", flag.ExitOnError)
	rate := fs.Int("rate", 54, "data rate (Mbps)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pts, err := core.SpectralRegrowthSweep(*rate, sim.Linspace(-8, 6, 8), *seed)
	if err != nil {
		return err
	}
	fmt.Println("PA backoff vs clause-17 transmit mask (Rapp PA, 4x oversampled):")
	for _, p := range pts {
		fmt.Printf("  backoff %+5.1f dB: %4d mask violations, worst +%.1f dB (PAPR %.1f dB)\n",
			p.BackoffDB, p.MaskViolations, p.WorstExcessDB, p.PAPRdB)
	}
	if need, err := core.RequiredBackoffDB(pts); err == nil {
		fmt.Printf("required backoff: %.1f dB\n", need)
	} else {
		fmt.Println(err)
	}
	return nil
}

// cmdACR measures the receiver's adjacent channel rejection per rate
// against the clause-17.3.10.2 requirements.
func cmdACR(args []string) error {
	fs := flag.NewFlagSet("acr", flag.ExitOnError)
	cfg := benchFlags(fs, "len packets seed target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	rows, err := core.ACRReport(cfg.Config, []int{6, 12, 24, 36, 54})
	if err != nil {
		return err
	}
	fmt.Println("Adjacent channel rejection (wanted 3 dB above clause-17 sensitivity, 10% PER):")
	fmt.Print(core.FormatACR(rows))
	return nil
}

// cmdJK demonstrates the paper's K-model flow (§4, ref [6]): extract a
// black-box model from the detailed analog receiver, then compare fidelity
// and run time of co-simulation vs the black box in the system simulation.
func cmdJK(args []string) error {
	fs := flag.NewFlagSet("jk", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	run := func(kind core.FrontEndKind) (float64, float64, error) {
		c := cfg.Config
		c.FrontEnd = kind
		bench, err := core.NewBench(c)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		res, err := bench.Run()
		if err != nil {
			return 0, 0, err
		}
		return res.BER(), time.Since(start).Seconds(), nil
	}
	if cfg.Packets == 10 {
		// The black box pays a one-off extraction cost; use enough packets
		// for the amortization story to show by default.
		cfg.Packets = 40
	}
	fmt.Printf("K-model black-box flow (paper §4 'other solution'), %d packets:\n", cfg.Packets)
	for _, kind := range []core.FrontEndKind{core.FrontEndCoSim, core.FrontEndBlackBox, core.FrontEndBehavioral} {
		ber, sec, err := run(kind)
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s BER %-8.4g %7.3f s\n", kind.String()+":", ber, sec)
	}
	fmt.Println("(black-box time includes the one-off extraction)")
	return nil
}

// cmdEVMBudget decomposes the link EVM per analog impairment.
func cmdEVMBudget(args []string) error {
	fs := flag.NewFlagSet("evmbudget", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	rows, err := core.EVMBudget(cfg.Config)
	if err != nil {
		return err
	}
	fmt.Println("EVM budget (one impairment at a time, behavioral front end):")
	fmt.Print(core.FormatEVMBudget(rows))
	return nil
}

// cmdGraph runs the scenario through the SPW-style block-diagram scheduler
// and prints the schedule plus the result.
func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power target-errors adjacent")
	dot := fs.String("dot", "", "write the schematic as Graphviz DOT to this file")
	if err := cfg.parse(args); err != nil {
		return err
	}
	if cfg.adjacent {
		cfg.Interferers = []core.InterfererSpec{core.AdjacentChannelSpec(cfg.WantedPowerDBm)}
	}
	bench, err := core.NewBench(cfg.Config)
	if err != nil {
		return err
	}
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		return err
	}
	names, err := sys.Graph.BlockNames()
	if err != nil {
		return err
	}
	fmt.Println("block schedule:", names)
	if err := writeGraphDOT(sys, *dot); err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	fmt.Println(res.Counter.String())
	return nil
}
