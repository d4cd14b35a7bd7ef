package core

import (
	"fmt"
	"math/rand"
	"time"

	"wlansim/internal/analog"
	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/rf"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// sweepDef is one single-series sweep of the experiment harnesses: its
// labels, each point's configuration and what a point reports.
type sweepDef struct {
	name, xLabel, yLabel string
	// config is the configuration of the point at v, derived from the
	// sweep's base and sharing its stage cache.
	config func(base Config, v float64, cache *sim.StageCache) Config
	// point projects a point's Result onto its measurement.
	point func(*Result) measure.Point
}

// runSweep is the one body of the single-series sweeps. It builds the
// sweep's stage cache and runs def's points over values in laneGroups
// contiguous groups of at most sweepLaneWidth(base), each as the lanes of
// one RunBenchBatch; completed points stream to base.OnSweepPoint, and the
// cache's counters are attached to the series. Each lane is bit-identical to
// its point's Bench.Run, so the series is the same for every grouping and
// worker count.
func runSweep(base Config, values []float64, def sweepDef) (*measure.Series, error) {
	cache := newSweepCache(base)
	sweep := &sim.Sweep{
		Name:        def.name,
		XLabel:      def.xLabel,
		YLabel:      def.yLabel,
		Values:      values,
		Workers:     base.Workers,
		Groups:      laneGroups(len(values), sim.ResolveWorkers(base.Workers), sweepLaneWidth(base)),
		OnPointDone: base.OnSweepPoint,
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			cfgs := make([]Config, len(vs))
			for i, v := range vs {
				cfgs[i] = def.config(base, v, cache)
			}
			results, err := RunBenchBatch(cfgs)
			if err != nil {
				return nil, err
			}
			pts := make([]measure.Point, len(results))
			for i, res := range results {
				pts[i] = def.point(res)
			}
			return pts, nil
		},
	}
	series, err := sweep.Execute()
	if err != nil {
		return nil, err
	}
	if cache != nil {
		series.Cache = cache.Stats()
	}
	return series, nil
}

// laneWidth is the default most points one lane group of a sweep on the
// behavioral front end runs.
const laneWidth = 4

// sweepLaneWidth is the most points one lane group of a sweep over base's
// front end runs: 1 off the behavioral front end, where every group is one
// Bench.Run; otherwise base.Batch when > 0, else laneWidth.
func sweepLaneWidth(base Config) int {
	switch {
	case base.FrontEnd != FrontEndBehavioral:
		return 1
	case base.Batch > 0:
		return base.Batch
	}
	return laneWidth
}

// berPoint reports a point's BER with its confidence interval.
func berPoint(res *Result) measure.Point { return res.Counter.Point() }

// newSweepCache builds the stage cache one sweep's points share, honoring
// the base config's cache knobs: an explicitly provided Cache wins, a nil
// cache disables sharing entirely when DisableStageCache is set, and
// CacheBytes bounds the resident bytes (0 selects sim.DefaultCacheBytes).
func newSweepCache(base Config) *sim.StageCache {
	if base.DisableStageCache {
		return nil
	}
	if base.Cache != nil {
		return base.Cache
	}
	return sim.NewStageCache(base.CacheBytes)
}

// AdjacentChannelSpec returns the paper's first adjacent channel: +20 MHz,
// 16 dB above the wanted level (§2.2).
func AdjacentChannelSpec(wantedDBm float64) InterfererSpec {
	return InterfererSpec{OffsetHz: 20e6, PowerDBm: wantedDBm + 16, RateMbps: 24}
}

// SecondAdjacentChannelSpec returns the second adjacent channel: +40 MHz,
// 32 dB above the wanted level (§2.2).
func SecondAdjacentChannelSpec(wantedDBm float64) InterfererSpec {
	return InterfererSpec{OffsetHz: 40e6, PowerDBm: wantedDBm + 32, RateMbps: 24}
}

// Figure5Config returns the scenario behind Figure 5: BER versus the
// Chebyshev channel-filter passband edge with the adjacent channel present.
func Figure5Config() Config {
	cfg := DefaultConfig()
	cfg.RateMbps = 48
	cfg.PSDULen = 100
	cfg.Packets = 8
	cfg.WantedPowerDBm = -70
	cfg.Interferers = []InterfererSpec{AdjacentChannelSpec(cfg.WantedPowerDBm)}
	// A 7th-order filter gives the sharp band edge of the paper's design,
	// so an underdimensioned passband visibly cuts the outer subcarriers.
	cfg.TuneRF = func(rc *rf.ReceiverConfig) { rc.ChannelFilterOrder = 7 }
	return cfg
}

// FilterBandwidthSweep reproduces Figure 5: it sweeps the channel-select
// filter passband edge (Hz) and measures the BER. The x axis is reported in
// units of 1e8 Hz like the paper's plot. Points run on base.Workers
// goroutines; each point seeds its packets from (base.Seed, edge).
//
// The filter edge first matters inside the front end (StageFrontEnd) — and
// within it, only at the channel-select filter — so the sweep's points share
// not just the TX synthesis and channel composition of every packet but the
// whole front-end segment upstream of the filter (LNA, mixers, DC block)
// through the invariant-prefix stage cache (SweptFrontEndFilterOnly). The
// edges run as lanes of RunBenchBatch from the shared pre-filter waveform
// (see runSweep).
func FilterBandwidthSweep(base Config, edgesHz []float64) (*measure.Series, error) {
	series, err := runSweep(base, edgesHz, sweepDef{
		name:   "BER vs filter bandwidth",
		xLabel: "passband edge frequency (1.0e8 Hz)",
		yLabel: "bit error rate",
		config: filterPointConfig,
		point:  berPoint,
	})
	if err != nil {
		return nil, err
	}
	// Report the x axis in units of 1e8 Hz, matching the paper's figure.
	for i := range series.Points {
		series.Points[i].X /= 1e8
	}
	return series, nil
}

// filterPointConfig is the configuration of FilterBandwidthSweep's point at
// edge: seeded from (base.Seed, edge), sharing the pre-filter prefix through
// cache.
func filterPointConfig(base Config, edge float64, cache *sim.StageCache) Config {
	cfg := base
	cfg.Seed = seed.ForPoint(base.Seed, edge)
	cfg.ContentSeed = base.Seed
	cfg.SweptStage = StageFrontEnd
	cfg.SweptFrontEndFilterOnly = true
	cfg.Cache = cache
	prev := base.TuneRF
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		if prev != nil {
			prev(rc)
		}
		rc.ChannelFilterEdgeHz = edge
	}
	return cfg
}

// Figure6Config returns the scenario behind Figure 6: BER versus the first
// LNA's compression point, with and without the adjacent channel.
func Figure6Config() Config {
	cfg := DefaultConfig()
	cfg.RateMbps = 24
	cfg.PSDULen = 100
	cfg.Packets = 8
	// High signal level (paper §2.2: wanted up to -23 dBm, adjacent 16 dB
	// hotter): the +16 dB adjacent channel drives the LNA into compression
	// when its 1 dB compression point is set too low.
	cfg.WantedPowerDBm = -40
	return cfg
}

// CompressionPointSweep reproduces one curve of Figure 6: BER versus the
// input 1 dB compression point of the first LNA (dBm), with the +16 dB
// adjacent channel when withAdjacent is set and with no interferer
// otherwise. The points run as lanes of RunBenchBatch (see lnaSweep).
func CompressionPointSweep(base Config, compressionDBm []float64, withAdjacent bool) (*measure.Series, error) {
	label := "non adjacent channel"
	if withAdjacent {
		label = "adjacent channel"
	}
	return lnaSweep(base, compressionDBm, withAdjacent, label, "compression point of LNA1 (dBm)",
		func(lna *rf.AmplifierConfig, cp float64) {
			lna.Model = rf.Cubic
			lna.UseCompression = true
			lna.CompressionDBm = cp
		})
}

// IP3Sweep measures BER versus the LNA's input-referred IP3 (dBm), the
// other nonlinearity sweep mentioned in §5.1, with the +16 dB adjacent
// channel when withAdjacent is set and with no interferer otherwise. The
// points run as lanes of RunBenchBatch (see lnaSweep).
func IP3Sweep(base Config, iip3DBm []float64, withAdjacent bool) (*measure.Series, error) {
	return lnaSweep(base, iip3DBm, withAdjacent, "BER vs LNA IIP3", "IIP3 of LNA1 (dBm)",
		func(lna *rf.AmplifierConfig, ip3 float64) {
			lna.Model = rf.Cubic
			lna.UseCompression = false
			lna.IIP3DBm = ip3
		})
}

// lnaSweep is the body of the LNA-nonlinearity sweeps: BER versus a value
// that tune applies to the first LNA. Each point is seeded from
// (base.Seed, value); the adjacent channel replaces base's interferers when
// withAdjacent is set, and no interferer remains otherwise.
//
// The value first matters inside the front end (StageFrontEnd), so the
// points share every packet's antenna waveform through the stage cache.
// Lanes of the RF receiver may differ in the LNA's nonlinearity, so the
// points run as lanes of RunBenchBatch from the cached antenna waveform (see
// runSweep).
func lnaSweep(base Config, values []float64, withAdjacent bool, name, xLabel string,
	tune func(*rf.AmplifierConfig, float64)) (*measure.Series, error) {
	base.Interferers = nil
	if withAdjacent {
		base.Interferers = []InterfererSpec{AdjacentChannelSpec(base.WantedPowerDBm)}
	}
	return runSweep(base, values, sweepDef{
		name:   name,
		xLabel: xLabel,
		yLabel: "bit error rate",
		config: func(base Config, v float64, cache *sim.StageCache) Config {
			return lnaPointConfig(base, v, cache, tune)
		},
		point: berPoint,
	})
}

// lnaPointConfig is the configuration of lnaSweep's point at v: seeded from
// (base.Seed, v), its LNA tuned to v, sharing the antenna prefix through
// cache.
func lnaPointConfig(base Config, v float64, cache *sim.StageCache, tune func(*rf.AmplifierConfig, float64)) Config {
	cfg := base
	cfg.Seed = seed.ForPoint(base.Seed, v)
	cfg.ContentSeed = base.Seed
	cfg.SweptStage = StageFrontEnd
	cfg.Cache = cache
	prev := base.TuneRF
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		if prev != nil {
			prev(rc)
		}
		tune(&rc.LNA, v)
	}
	return cfg
}

// SpectrumExperiment reproduces Figure 4: the PSD of an OFDM burst with the
// first adjacent channel, centered at the 5.2 GHz carrier. The seed makes
// the random payloads of the wanted and adjacent bursts reproducible.
func SpectrumExperiment(wantedDBm float64, withSecondAdjacent bool, seed int64) (*dsp.PSD, measure.ChannelPowerReport, error) {
	rng := rand.New(rand.NewSource(seed))
	total := 6000
	var synth interfererSynth
	wanted, err := synth.wave(0, 24, total, rng)
	if err != nil {
		return nil, measure.ChannelPowerReport{}, err
	}
	adj, err := synth.wave(1, 24, total, rng)
	if err != nil {
		return nil, measure.ChannelPowerReport{}, err
	}
	emitters := []channel.Emitter{
		{Samples: wanted, OffsetHz: 0, PowerDBm: wantedDBm},
		{Samples: adj, OffsetHz: 20e6, PowerDBm: wantedDBm + 16},
	}
	maxOff := 20e6
	if withSecondAdjacent {
		adj2, err := synth.wave(2, 24, total, rng)
		if err != nil {
			return nil, measure.ChannelPowerReport{}, err
		}
		emitters = append(emitters, channel.Emitter{
			Samples: adj2, OffsetHz: 40e6, PowerDBm: wantedDBm + 32,
		})
		maxOff = 40e6
	}
	comp, err := channel.NewComposer(channel.MinOversample(maxOff))
	if err != nil {
		return nil, measure.ChannelPowerReport{}, err
	}
	x, err := comp.Compose(emitters)
	if err != nil {
		return nil, measure.ChannelPowerReport{}, err
	}
	psd, err := measure.NewSpectrum().Analyze(x, comp.CompositeRateHz())
	if err != nil {
		return nil, measure.ChannelPowerReport{}, err
	}
	return psd, measure.ChannelPowers(psd), nil
}

// EVMvsSNR reproduces the §5.2 methodology: error vector magnitude measured
// with the ideal receiver model over a sweep of channel SNRs.
//
// The SNR first matters at the noise stage, so the points share everything
// up to and including the noiseless post-front-end waveform (the ideal front
// end is the identity, letting the cache store the reusable baseband) and
// re-draw only the noise per point.
func EVMvsSNR(base Config, snrsDB []float64) (*measure.Series, error) {
	base.FrontEnd = FrontEndIdeal
	base.UseIdealRxTiming = true
	base.Interferers = nil
	return runSweep(base, snrsDB, sweepDef{
		name:   "EVM vs SNR (ideal receiver)",
		xLabel: "channel SNR (dB)",
		yLabel: "EVM (%)",
		config: func(base Config, snr float64, cache *sim.StageCache) Config {
			return noisePointConfig(base, base.Seed, snr, cache)
		},
		point: func(res *Result) measure.Point { return measure.Point{Y: res.EVM.Percent()} },
	})
}

// noisePointConfig is the configuration of an SNR sweep's point at snr:
// seeded from (root, snr), sharing everything before the noise through
// cache.
func noisePointConfig(base Config, root int64, snr float64, cache *sim.StageCache) Config {
	cfg := base
	cfg.Seed = seed.ForPoint(root, snr)
	cfg.ContentSeed = root
	cfg.SweptStage = StageNoise
	cfg.Cache = cache
	cfg.ChannelSNRdB = &snr
	return cfg
}

// TimingRow is one row of the reproduced Table 2.
type TimingRow struct {
	// Packets is the number of OFDM packets simulated.
	Packets int
	// FastSeconds is the wall-clock time of the pure system-level
	// (complex-baseband) simulation, the fastest of timingRuns runs.
	FastSeconds float64
	// CoSimSeconds is the wall-clock time of the analog co-simulation, the
	// fastest of timingRuns runs.
	CoSimSeconds float64
}

// Ratio returns how many times slower the co-simulation ran.
func (r TimingRow) Ratio() float64 {
	if r.FastSeconds <= 0 {
		return 0
	}
	return r.CoSimSeconds / r.FastSeconds
}

// timingRuns is how many times TimingComparison runs each side of a row.
// Bench.Run repeats the same packets bit for bit, so the fastest run is the
// one least disturbed by other work on the machine: a single run of a
// sub-millisecond system-level packet can be inflated several-fold by one
// preemption, which swings the row's ratio by as much.
const timingRuns = 3

// TimingComparison reproduces Table 2: wall-clock time of the pure
// system-level simulation versus the analog co-simulation for increasing
// packet counts, each the fastest of timingRuns runs of one Bench.
//
// The two sides of a row alternate run by run (fast, co-sim, fast, co-sim,
// ...) in the same goroutine, so a burst of other load on the machine lands
// on runs of both sides rather than on all runs of one, and each side's
// fastest run sees the same quiet stretches. Unlike the BER sweeps, rows
// run serially by default even when base.Workers is 0, because concurrent
// rows contend for the CPU and inflate the absolute wall-clock numbers.
// Setting base.Workers > 1 explicitly opts into parallel rows; the per-row
// ratio — the paper's 30–40x headline — remains meaningful either way.
func TimingComparison(base Config, packetCounts []int) ([]TimingRow, error) {
	for _, n := range packetCounts {
		if n < 1 {
			return nil, fmt.Errorf("core: packet count %d", n)
		}
	}
	timed := func(bench *Bench) (float64, error) {
		//lint:ignore detflow elapsed wall-clock time is the measured quantity of the timing comparison
		start := time.Now()
		if _, err := bench.Run(); err != nil {
			return 0, err
		}
		//lint:ignore detflow elapsed wall-clock time is the measured quantity of the timing comparison
		return time.Since(start).Seconds(), nil
	}
	row := func(n int) (TimingRow, error) {
		fast, cosim := base, base
		fast.Packets, cosim.Packets = n, n
		fast.FrontEnd = FrontEndBehavioral
		cosim.FrontEnd = FrontEndCoSim
		fastBench, err := NewBench(fast)
		if err != nil {
			return TimingRow{}, err
		}
		cosimBench, err := NewBench(cosim)
		if err != nil {
			return TimingRow{}, err
		}
		r := TimingRow{Packets: n}
		for k := range timingRuns {
			fastSec, err := timed(fastBench)
			if err != nil {
				return TimingRow{}, err
			}
			cosimSec, err := timed(cosimBench)
			if err != nil {
				return TimingRow{}, err
			}
			if k == 0 || fastSec < r.FastSeconds {
				r.FastSeconds = fastSec
			}
			if k == 0 || cosimSec < r.CoSimSeconds {
				r.CoSimSeconds = cosimSec
			}
		}
		return r, nil
	}

	rows := make([]TimingRow, len(packetCounts))
	if len(packetCounts) == 0 {
		return rows, nil
	}
	// The rows run on the sweep executor, one row per group, so pooling and
	// error order match the BER sweeps; serially unless base.Workers > 1.
	// OnSweepPoint stays unwired here: the values are row indices, not a
	// swept physical parameter, so streaming them as measurement points
	// would be misleading.
	sweep := &sim.Sweep{
		Name:    "timing rows",
		Values:  sim.Linspace(0, float64(len(packetCounts)-1), len(packetCounts)),
		Workers: max(base.Workers, 1),
		RunPointBatch: func(idx []float64) ([]measure.Point, error) {
			i := int(idx[0])
			r, err := row(packetCounts[i])
			if err != nil {
				return nil, err
			}
			rows[i] = r
			return []measure.Point{{Y: r.Ratio()}}, nil
		},
	}
	if _, err := sweep.Execute(); err != nil {
		return nil, err
	}
	return rows, nil
}

// NoiseArtifactResult captures the §4.3/§5.1 co-simulation artifact: the AMS
// designer could not run the behavioral models' noise functions in transient
// analysis, so co-simulated BER came out better than the SPW-only result.
type NoiseArtifactResult struct {
	// BehavioralBER is the SPW-style run with all noise sources active.
	BehavioralBER float64
	// CoSimNoNoiseBER is the co-simulation with noise functions
	// unavailable (the artifact).
	CoSimNoNoiseBER float64
	// CoSimWithNoiseBER applies the paper's suggested workaround
	// (Verilog-AMS random functions), restoring the noise.
	CoSimWithNoiseBER float64
}

// NoiseArtifactExperiment measures the artifact at a low wanted power where
// thermal noise dominates the error rate.
func NoiseArtifactExperiment(base Config) (NoiseArtifactResult, error) {
	var out NoiseArtifactResult
	run := func(cfg Config) (float64, error) {
		bench, err := NewBench(cfg)
		if err != nil {
			return 0, err
		}
		res, err := bench.Run()
		if err != nil {
			return 0, err
		}
		return res.BER(), nil
	}
	behav := base
	behav.FrontEnd = FrontEndBehavioral
	var err error
	if out.BehavioralBER, err = run(behav); err != nil {
		return out, err
	}
	noNoise := base
	noNoise.FrontEnd = FrontEndCoSim
	prev := base.TuneCoSim
	noNoise.TuneCoSim = func(c *analog.FrontEndConfig) {
		if prev != nil {
			prev(c)
		}
		c.EnableNoise = false
	}
	if out.CoSimNoNoiseBER, err = run(noNoise); err != nil {
		return out, err
	}
	withNoise := base
	withNoise.FrontEnd = FrontEndCoSim
	withNoise.TuneCoSim = func(c *analog.FrontEndConfig) {
		if prev != nil {
			prev(c)
		}
		c.EnableNoise = true
	}
	if out.CoSimWithNoiseBER, err = run(withNoise); err != nil {
		return out, err
	}
	return out, nil
}

// StandardsTableText renders the paper's Table 1.
func StandardsTableText() string {
	out := fmt.Sprintf("%-10s %-10s %-12s %s\n", "Approval", "Standard", "Band [GHz]", "Data Rate [Mbps]")
	for _, s := range phy.StandardsTable {
		year := "expect."
		if s.Approval > 0 {
			year = fmt.Sprintf("%d", s.Approval)
		}
		rates := ""
		for i, r := range s.RatesMbps {
			if i > 0 {
				rates += ", "
			}
			//lint:ignore floateq table rates are exact small constants; integrality test is intentional
			if r == float64(int(r)) {
				rates += fmt.Sprintf("%d", int(r))
			} else {
				rates += fmt.Sprintf("%.1f", r)
			}
		}
		out += fmt.Sprintf("%-10s %-10s %-12g %s\n", year, s.Name, s.BandGHz, rates)
	}
	return out
}
