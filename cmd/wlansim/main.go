// Command wlansim runs the WLAN system-level verification experiments of
// the paper: BER measurements of the 802.11a link through the RF receiver
// front end, the figure sweeps (filter bandwidth, compression point, IP3),
// spectrum plots, EVM measurements, and the simulation-time comparison.
//
// Usage:
//
//	wlansim [-cpuprofile file] [-memprofile file] <command> [flags]
//
// Commands:
//
//	table1    print the IEEE WLAN standards table (paper Table 1)
//	spectrum  PSD of the OFDM signal with adjacent channel(s) (Figure 4)
//	ber       one BER measurement point
//	fig5      BER vs channel-filter passband edge (Figure 5)
//	fig6      BER vs LNA compression point (Figure 6)
//	ip3       BER vs LNA IIP3 (§5.1 text)
//	evm       EVM vs SNR with the ideal receiver (§5.2)
//	table2    simulation-time comparison fast vs co-sim (Table 2)
//	artifact  co-simulation noise artifact (§4.3/§5.1)
//	cascade   Friis analysis of the default receiver line-up
//	waterfall BER vs SNR for several rates (ideal front end)
//	sensitivity  bisect the receiver sensitivity at a rate
//	inputrange   verify the -88..-23 dBm input range (§2.2)
//	rfcheck   characterize RF blocks with tone test benches (§3.2)
//	mask      check a transmit burst against the clause-17 spectral mask
//	graph     run the scenario through the block-diagram scheduler
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"wlansim/internal/core"
	"wlansim/internal/kernels"
	"wlansim/internal/measure"
	"wlansim/internal/rf"
	"wlansim/internal/sim"
)

func main() {
	global := flag.NewFlagSet("wlansim", flag.ExitOnError)
	global.Usage = usage
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memProfile := global.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	_ = global.Parse(os.Args[1:]) // ExitOnError: Parse never returns an error
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := global.Arg(0), global.Args()[1:]

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlansim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wlansim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}

	err := runCommand(cmd, args)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "wlansim: wrote CPU profile to", *cpuProfile)
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "wlansim: -memprofile: %v\n", ferr)
			os.Exit(1)
		}
		runtime.GC() // materialize the steady-state live set
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fmt.Fprintf(os.Stderr, "wlansim: -memprofile: %v\n", ferr)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintln(os.Stderr, "wlansim: wrote heap profile to", *memProfile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlansim %s: %v\n", cmd, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func runCommand(cmd string, args []string) error {
	var err error
	switch cmd {
	case "table1":
		fmt.Print(core.StandardsTableText())
	case "spectrum":
		err = cmdSpectrum(args)
	case "ber":
		err = cmdBER(args)
	case "fig5":
		err = cmdFig5(args)
	case "fig6":
		err = cmdFig6(args)
	case "ip3":
		err = cmdIP3(args)
	case "evm":
		err = cmdEVM(args)
	case "table2":
		err = cmdTable2(args)
	case "artifact":
		err = cmdArtifact(args)
	case "cascade":
		err = cmdCascade(args)
	case "waterfall":
		err = cmdWaterfall(args)
	case "sensitivity":
		err = cmdSensitivity(args)
	case "inputrange":
		err = cmdInputRange(args)
	case "rfcheck":
		err = cmdRFCheck(args)
	case "mask":
		err = cmdMask(args)
	case "graph":
		err = cmdGraph(args)
	case "evmbudget":
		err = cmdEVMBudget(args)
	case "jk":
		err = cmdJK(args)
	case "acr":
		err = cmdACR(args)
	case "capture":
		err = cmdCapture(args)
	case "decode":
		err = cmdDecode(args)
	case "regrowth":
		err = cmdRegrowth(args)
	case "report":
		err = cmdReport(args)
	case "submit":
		err = cmdSubmit(args)
	case "jobs":
		err = cmdJobs(args)
	case "version":
		cmdVersion()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "wlansim: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wlansim [-cpuprofile file] [-memprofile file] <command> [flags]
commands: table1 spectrum ber fig5 fig6 ip3 evm table2 artifact cascade\n          waterfall sensitivity inputrange rfcheck mask graph evmbudget jk acr\n          capture decode regrowth report submit jobs version`)
}

// cmdVersion prints the toolchain, platform and kernel-dispatch identity, so
// benchmark records and bug reports carry which kernel tier produced them.
func cmdVersion() {
	fmt.Printf("wlansim (%s %s/%s)\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("kernels: dispatch %s, simd available %v, lane width %d (override: WLANSIM_SIMD=off)\n",
		kernels.DispatchName(), kernels.SIMDAvailable(), kernels.SIMDWidth())
}

func cmdSpectrum(args []string) error {
	fs := flag.NewFlagSet("spectrum", flag.ExitOnError)
	power := fs.Float64("power", -62, "wanted channel power (dBm)")
	second := fs.Bool("second", false, "include the second adjacent channel (+40 MHz, +32 dB)")
	points := fs.Int("points", 96, "output points")
	seed := fs.Int64("seed", 42, "payload RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	psd, rep, err := core.SpectrumExperiment(*power, *second, *seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: OFDM signal and adjacent channel (5.2 GHz carrier)")
	fmt.Println(rep)
	series := measure.SeriesDBm(psd, 5.2e9, *points)
	fmt.Printf("%-16s %s\n", "freq [GHz]", "PSD [dBm/Hz]")
	for _, p := range series.Points {
		fmt.Printf("%-16.6f %8.1f\n", p.X/1e9, p.Y)
	}
	return nil
}

// benchArgs is the scenario a command reads from the shared flags.
type benchArgs struct {
	core.Config
	adjacent bool
	fs       *flag.FlagSet
	unused   map[string]bool // shared flags the command does not read
}

// benchFlags registers the shared scenario flags on fs. honoured lists,
// space-separated, the ones the command reads; the others still parse, but
// setting one is a usage error (see parse), so no setting is silently
// dropped.
func benchFlags(fs *flag.FlagSet, honoured string) *benchArgs {
	b := &benchArgs{Config: core.DefaultConfig(), fs: fs, unused: map[string]bool{}}
	keep := strings.Fields(honoured)
	usage := func(name, text string) string {
		if slices.Contains(keep, name) {
			return text
		}
		b.unused[name] = true
		return "not used by " + fs.Name() + "; setting it is an error"
	}
	cfg := &b.Config
	fs.IntVar(&cfg.RateMbps, "rate", cfg.RateMbps, usage("rate", "data rate (Mbps)"))
	fs.IntVar(&cfg.PSDULen, "len", cfg.PSDULen, usage("len", "PSDU length (octets)"))
	fs.IntVar(&cfg.Packets, "packets", cfg.Packets, usage("packets", "packets per point"))
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, usage("seed", "random seed"))
	fs.Float64Var(&cfg.WantedPowerDBm, "power", cfg.WantedPowerDBm, usage("power", "wanted power (dBm)"))
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, usage("workers", "concurrent sweep points (0 = all CPUs, 1 = serial; results are identical)"))
	fs.IntVar(&cfg.TargetErrors, "target-errors", cfg.TargetErrors, usage("target-errors", "stop each point after this many bit errors (0 = run all packets)"))
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", cfg.CacheBytes, usage("cache-bytes", "stage-cache byte budget for sweeps (<= 0 selects the default)"))
	fs.BoolVar(&cfg.DisableStageCache, "no-stage-cache", cfg.DisableStageCache, usage("no-stage-cache", "run sweeps without the invariant-prefix stage cache"))
	fs.BoolVar(&b.adjacent, "adjacent", false, usage("adjacent", "add the +16 dB adjacent channel"))
	for _, name := range keep {
		if fs.Lookup(name) == nil {
			panic("wlansim: " + fs.Name() + " honours unknown flag -" + name)
		}
	}
	return b
}

// parse parses the command line. Setting a shared flag the command does not
// read is a usage error naming the flag.
func (b *benchArgs) parse(args []string) error {
	if err := b.fs.Parse(args); err != nil {
		return err
	}
	var err error
	b.fs.Visit(func(f *flag.Flag) {
		if err == nil && b.unused[f.Name] {
			err = usageError{fmt.Errorf("flag -%s is not used by %s", f.Name, b.fs.Name())}
		}
	})
	return err
}

// usageError is a command line the command cannot honour; wlansim exits 2
// on it, as on a flag parse error.
type usageError struct{ error }

// printCacheStats reports the stage-cache effectiveness of each sweep series
// that ran with a cache attached (nothing is printed for uncached runs),
// tagged with the kernel tier that produced the sweep so recorded stats are
// attributable to a dispatch configuration.
func printCacheStats(series ...*measure.Series) {
	for _, s := range series {
		if s.Cache.Enabled {
			fmt.Printf("%s [%s, kernels %s]\n", s.Cache, s.Label, kernels.DispatchName())
		}
	}
}

func cmdBER(args []string) error {
	fs := flag.NewFlagSet("ber", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power target-errors adjacent")
	frontend := fs.String("frontend", "behavioral", "front end: ideal | behavioral | cosim | blackbox")
	snr := fs.Float64("snr", 0, "channel SNR in dB (0 disables channel noise)")
	if err := cfg.parse(args); err != nil {
		return err
	}
	switch *frontend {
	case "ideal":
		cfg.FrontEnd = core.FrontEndIdeal
	case "behavioral":
		cfg.FrontEnd = core.FrontEndBehavioral
	case "cosim":
		cfg.FrontEnd = core.FrontEndCoSim
	case "blackbox":
		cfg.FrontEnd = core.FrontEndBlackBox
	default:
		return fmt.Errorf("unknown front end %q", *frontend)
	}
	if cfg.adjacent {
		cfg.Interferers = []core.InterfererSpec{core.AdjacentChannelSpec(cfg.WantedPowerDBm)}
	}
	if *snr != 0 {
		cfg.ChannelSNRdB = snr
	}
	bench, err := core.NewBench(cfg.Config)
	if err != nil {
		return err
	}
	res, err := bench.Run()
	if err != nil {
		return err
	}
	lo, hi := res.Counter.ConfidenceInterval95()
	fmt.Printf("front end %s, oversample %dx, kernels %s\n",
		res.FrontEnd, res.OversampleFactor, kernels.DispatchName())
	fmt.Printf("%s\n95%% CI [%.3g, %.3g]\n", res.Counter.String(), lo, hi)
	o := res.Outcomes
	fmt.Printf("packets %d: clean %d, payload errors %d, wrong length %d, SIGNAL failed %d, sync missed %d\n",
		o.Total(), o.Clean, o.PayloadErrors, o.WrongLength, o.SignalFail, o.SyncMiss)
	fmt.Printf("%s\n", res.EVM)
	return nil
}

func cmdFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	cfg := benchFlags(fs, "packets seed workers target-errors cache-bytes no-stage-cache")
	lo := fs.Float64("from", 6e6, "lowest passband edge (Hz)")
	hi := fs.Float64("to", 16e6, "highest passband edge (Hz)")
	n := fs.Int("points", 6, "sweep points")
	csvPath := fs.String("csv", "", "also write the figure as CSV to this file")
	format := formatFlag(fs)
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := core.Figure5Config()
	base.Packets = cfg.Packets
	base.Seed = cfg.Seed
	base.Workers = cfg.Workers
	base.TargetErrors = cfg.TargetErrors
	base.CacheBytes = cfg.CacheBytes
	base.DisableStageCache = cfg.DisableStageCache
	series, err := core.FilterBandwidthSweep(base, sim.Linspace(*lo, *hi, *n))
	if err != nil {
		return err
	}
	fig := &measure.Figure{Title: "Figure 5: BER vs filter bandwidth (with present adjacent channel)"}
	fig.Series = append(fig.Series, series)
	if err := emitFigure(fig, *format); err != nil {
		return err
	}
	return writeFigureCSV(fig, *csvPath)
}

// writeFigureCSV optionally exports a figure to a CSV file.
func writeFigureCSV(fig *measure.Figure, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fig.WriteCSV(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func cmdFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	cfg := benchFlags(fs, "packets seed workers target-errors cache-bytes no-stage-cache")
	lo := fs.Float64("from", -30, "lowest compression point (dBm)")
	hi := fs.Float64("to", -5, "highest compression point (dBm)")
	n := fs.Int("points", 6, "sweep points")
	csvPath := fs.String("csv", "", "also write the figure as CSV to this file")
	format := formatFlag(fs)
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := core.Figure6Config()
	base.Packets = cfg.Packets
	base.Seed = cfg.Seed
	base.Workers = cfg.Workers
	base.TargetErrors = cfg.TargetErrors
	base.CacheBytes = cfg.CacheBytes
	base.DisableStageCache = cfg.DisableStageCache
	cps := sim.Linspace(*lo, *hi, *n)
	with, err := core.CompressionPointSweep(base, cps, true)
	if err != nil {
		return err
	}
	without, err := core.CompressionPointSweep(base, cps, false)
	if err != nil {
		return err
	}
	fig := &measure.Figure{Title: "Figure 6: BER vs compression point of first LNA"}
	fig.Series = append(fig.Series, with, without)
	if err := emitFigure(fig, *format); err != nil {
		return err
	}
	return writeFigureCSV(fig, *csvPath)
}

func cmdIP3(args []string) error {
	fs := flag.NewFlagSet("ip3", flag.ExitOnError)
	cfg := benchFlags(fs, "packets seed workers target-errors cache-bytes no-stage-cache")
	lo := fs.Float64("from", -20, "lowest IIP3 (dBm)")
	hi := fs.Float64("to", 5, "highest IIP3 (dBm)")
	n := fs.Int("points", 6, "sweep points")
	format := formatFlag(fs)
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := core.Figure6Config()
	base.Packets = cfg.Packets
	base.Seed = cfg.Seed
	base.Workers = cfg.Workers
	base.TargetErrors = cfg.TargetErrors
	base.CacheBytes = cfg.CacheBytes
	base.DisableStageCache = cfg.DisableStageCache
	series, err := core.IP3Sweep(base, sim.Linspace(*lo, *hi, *n), true)
	if err != nil {
		return err
	}
	fig := &measure.Figure{Title: "BER vs LNA IIP3 (with adjacent channel, §5.1)"}
	fig.Series = append(fig.Series, series)
	return emitFigure(fig, *format)
}

func cmdEVM(args []string) error {
	fs := flag.NewFlagSet("evm", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed power workers target-errors cache-bytes no-stage-cache")
	lo := fs.Float64("from", 10, "lowest SNR (dB)")
	hi := fs.Float64("to", 35, "highest SNR (dB)")
	n := fs.Int("points", 6, "sweep points")
	format := formatFlag(fs)
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := cfg.Config
	series, err := core.EVMvsSNR(base, sim.Linspace(*lo, *hi, *n))
	if err != nil {
		return err
	}
	fig := &measure.Figure{Title: "EVM vs SNR with ideal receiver (§5.2)"}
	fig.Series = append(fig.Series, series)
	return emitFigure(fig, *format)
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len seed power workers target-errors")
	max := fs.Int("max", 4, "largest packet count (rows are the powers of two up to it)")
	if err := cfg.parse(args); err != nil {
		return err
	}
	counts, err := table2Counts(*max)
	if err != nil {
		return err
	}
	base := cfg.Config
	base.Interferers = nil
	rows, err := core.TimingComparison(base, counts)
	if err != nil {
		return err
	}
	fmt.Println("Table 2: comparison of simulation time")
	fmt.Printf("%-14s %-18s %-18s %s\n", "OFDM packets", "system-level [s]", "co-simulation [s]", "ratio")
	for _, r := range rows {
		fmt.Printf("%-14d %-18.3f %-18.3f %.1fx\n", r.Packets, r.FastSeconds, r.CoSimSeconds, r.Ratio())
	}
	return nil
}

// table2Counts returns Table 2's packet counts: the powers of two from 1 up
// to max. A max below 1 is a usage error.
func table2Counts(max int) ([]int, error) {
	if max < 1 {
		return nil, usageError{fmt.Errorf("-max %d: want at least 1", max)}
	}
	var counts []int
	for n := 1; n > 0 && n <= max; n *= 2 { // n > 0 stops at overflow
		counts = append(counts, n)
	}
	return counts, nil
}

func cmdArtifact(args []string) error {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	cfg := benchFlags(fs, "rate len packets seed target-errors")
	if err := cfg.parse(args); err != nil {
		return err
	}
	base := cfg.Config
	base.WantedPowerDBm = -95 // well below sensitivity: thermal noise dominates
	res, err := core.NoiseArtifactExperiment(base)
	if err != nil {
		return err
	}
	fmt.Println("Co-simulation noise artifact (§4.3/§5.1):")
	fmt.Printf("  behavioral (noise on):       BER %.4g\n", res.BehavioralBER)
	fmt.Printf("  co-sim, noise unavailable:   BER %.4g  <- better than reality\n", res.CoSimNoNoiseBER)
	fmt.Printf("  co-sim, noise workaround on: BER %.4g\n", res.CoSimWithNoiseBER)
	return nil
}

func cmdCascade(args []string) error {
	fs := flag.NewFlagSet("cascade", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rxCfg := rf.DefaultReceiverConfig(1)
	rx, err := rf.NewReceiver(rxCfg)
	if err != nil {
		return err
	}
	cas, err := rx.Cascade()
	if err != nil {
		return err
	}
	fmt.Println("Double conversion receiver line-up:", rx.BlockNames())
	fmt.Println("Friis cascade:", cas)
	fmt.Printf("Sensitivity (20 MHz, 10 dB SNR): %.1f dBm\n", cas.SensitivityDBm(20e6, 10))
	plan := rf.DefaultFrequencyPlan()
	fmt.Printf("Frequency plan: RF %.1f GHz, LO %.1f GHz, first IF %.1f GHz (image at DC)\n",
		plan.RFHz/1e9, plan.LOHz/1e9, plan.FirstIFz/1e9)
	return nil
}
