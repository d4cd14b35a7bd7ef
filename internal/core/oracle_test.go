package core

import (
	"math"
	"testing"

	"wlansim/internal/bits"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// seqOracle is the reference oracle of Bench.Run: the sequential packet loop
// as it was before Run became a one-lane group of RunBenchBatch's loop. Each
// packet's prefix comes from oraclePrefix, which returns where the waveform
// sits in the pipeline; Run's boundary switch then runs the suffix on one
// rf.FrontEnd (rf.Receiver for the behavioral front end) and the packet
// decodes eagerly. The point-variant antenna noise is one stream marked at
// the point seed and rewound at the top of every run. Bench.Run must match it
// bit for bit, run after run.
type seqOracle struct {
	b     *Bench
	fe    rf.FrontEnd
	rx    *rxdsp.Receiver
	irx   *rxdsp.IdealReceiver
	noise *randutil.Rand // the suffix noise stream (nil until the first run)
	// antenna is the uncached prefix's waveform buffer, reused per packet.
	antenna []complex128
}

// oracleBoundary tells runSequential where oraclePrefix's waveform sits in
// the pipeline, i.e. which suffix still has to run.
type oracleBoundary int

const (
	oracleAntenna   oracleBoundary = iota // noise (when in the suffix) and the full front end still apply
	oraclePreFilter                       // ProcessFromFilter still applies
)

// oraclePrefix produces packet p's waveform at the prefix boundary with its
// reference payload bits; the waveform is safe to mutate.
func (o *seqOracle) oraclePrefix(p, os int) ([]byte, []complex128, oracleBoundary, error) {
	b := o.b
	cloneWave := func(e *stageEntry) []complex128 {
		b.scratch = append(b.scratch[:0], e.wave...)
		return b.scratch
	}
	rxFE, behavioral := o.fe.(*rf.Receiver)
	switch {
	case b.preFilterPrefix() && behavioral:
		withNoise := b.cfg.ChannelSNRdB != nil
		v, err := b.cfg.Cache.GetOrCompute(b.stageKey(cacheKindPreFilter, p, os, withNoise),
			func() (any, int64, error) {
				e, err := b.fullPrefix(nil, p, os, withNoise)
				if err != nil {
					return nil, 0, err
				}
				rxFE.Reset()
				e.wave = rxFE.ProcessToFilter(e.wave)
				return &e, e.sizeBytes(), nil
			})
		if err != nil {
			return nil, nil, oracleAntenna, err
		}
		return v.(*stageEntry).refBits, cloneWave(v.(*stageEntry)), oraclePreFilter, nil

	case b.cfg.SweptStage >= StageNoise:
		v, err := b.cfg.Cache.GetOrCompute(b.stageKey(cacheKindAntenna, p, os, b.antennaNoise()),
			func() (any, int64, error) {
				e, err := b.fullPrefix(nil, p, os, b.antennaNoise())
				if err != nil {
					return nil, 0, err
				}
				return &e, e.sizeBytes(), nil
			})
		if err != nil {
			return nil, nil, oracleAntenna, err
		}
		return v.(*stageEntry).refBits, cloneWave(v.(*stageEntry)), oracleAntenna, nil

	default:
		psdu, frame, err := b.synthTX(p)
		if err != nil {
			return nil, nil, oracleAntenna, err
		}
		x, err := b.composeChannel(o.antenna[:0], frame, os, p)
		if err != nil {
			return nil, nil, oracleAntenna, err
		}
		o.antenna = x
		return bits.FromBytes(psdu), x, oracleAntenna, nil
	}
}

// runSequential is the oracle's Run: every packet's prefix, suffix and eager
// decode, one after another on one goroutine.
func runSequential(o *seqOracle) (*Result, error) {
	b := o.b
	os := b.oversample()
	if o.fe == nil {
		fe, err := b.buildFrontEnd(os)
		if err != nil {
			return nil, err
		}
		o.fe = fe
	}
	mode, err := phy.ModeByRate(b.cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	if b.tx == nil {
		b.tx = &phy.Transmitter{Mode: mode}
	}
	suffixNoise := b.suffixNoise()
	if suffixNoise {
		if o.noise == nil {
			o.noise = randutil.NewRandDirect(seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0))
		}
		o.noise.Rewind()
	}
	res := &Result{OversampleFactor: os, FrontEnd: b.cfg.FrontEnd}
	var evm evmAccum
	for p := 0; p < b.cfg.Packets; p++ {
		refBits, wave, boundary, err := o.oraclePrefix(p, os)
		if err != nil {
			return nil, err
		}
		var baseband []complex128
		switch boundary {
		case oraclePreFilter:
			rx := o.fe.(*rf.Receiver)
			rx.Reset()
			baseband = rx.ProcessFromFilter(wave)
		default:
			if suffixNoise {
				b.addNoise(wave, os, o.noise)
			}
			o.fe.Reset()
			baseband = o.fe.Process(wave)
		}
		pkt, rxErr := o.receive(baseband, mode)
		if b.accountPacket(pkt, rxErr, refBits, mode, res, &evm) {
			break
		}
	}
	evm.finish(res)
	return res, nil
}

// receive runs the oracle's DSP receiver, which decodes every packet eagerly.
func (o *seqOracle) receive(baseband []complex128, mode phy.Mode) (*rxdsp.PacketResult, error) {
	if o.b.cfg.UseIdealRxTiming {
		if o.irx == nil {
			o.irx = &rxdsp.IdealReceiver{Mode: mode, PSDULen: o.b.cfg.PSDULen, ReuseBuffers: true}
		}
		return o.irx.Receive(baseband, leadInSamples)
	}
	if o.rx == nil {
		o.rx = rxdsp.NewReceiver()
		o.rx.HardDecisions = o.b.cfg.HardDecisions
		o.rx.DisableCSI = o.b.cfg.DisableCSI
		o.rx.ReuseBuffers = true
	}
	o.rx.Reset()
	return o.rx.Receive(baseband, 0)
}

// sameResult reports the first way got differs from want, bit for bit.
func sameResult(got, want *Result) (string, bool) {
	gp, wp := got.Counter.Point(), want.Counter.Point()
	switch {
	case got.Counter != want.Counter:
		return "counter", false
	case math.Float64bits(gp.Y) != math.Float64bits(wp.Y),
		math.Float64bits(gp.CILo) != math.Float64bits(wp.CILo),
		math.Float64bits(gp.CIHi) != math.Float64bits(wp.CIHi):
		return "BER point", false
	case math.Float64bits(got.EVM.RMS) != math.Float64bits(want.EVM.RMS), got.EVM.Symbols != want.EVM.Symbols:
		return "EVM", false
	case got.OversampleFactor != want.OversampleFactor, got.FrontEnd != want.FrontEnd:
		return "run shape", false
	}
	return "", true
}

// TestRunMatchesSequentialOracle pins Bench.Run to the sequential oracle on
// every prefix boundary and front end: the ideal front end on a cached
// antenna, the pre-filter entry (a miss, then a hit), the cached antenna
// with and without the point's own noise on the behavioral front end, a
// channel sweep (no shared prefix), the full chain with the adjacent
// channel, co-sim and black-box, hard decisions, an early stop, and
// repeated runs on one Bench (each run must reproduce the oracle's run of
// the same index). Each row's points run one after another, one Bench each,
// sharing one stage cache per side when cached; the caches' hit and miss
// counts must agree after every run, and a cached row must both miss and
// hit unless its points share no prefix.
func TestRunMatchesSequentialOracle(t *testing.T) {
	snr := func(c Config, db float64) Config {
		c.ChannelSNRdB = &db
		return c
	}
	small := func(c Config) Config {
		c.Packets, c.PSDULen = 2, 40
		return c
	}
	point := func(base Config, stage Stage, v float64) Config {
		c := base
		c.Seed = seed.ForPoint(base.Seed, v)
		c.ContentSeed = base.Seed
		c.SweptStage = stage
		return c
	}

	behavioral := small(DefaultConfig())

	ideal := small(DefaultConfig())
	ideal.FrontEnd = FrontEndIdeal
	ideal.UseIdealRxTiming = true
	ideal.Interferers = nil

	fig5 := small(Figure5Config())

	adjacent := small(DefaultConfig())
	adjacent.Interferers = []InterfererSpec{AdjacentChannelSpec(adjacent.WantedPowerDBm)}

	idealAdjacent := snr(adjacent, 18)
	idealAdjacent.FrontEnd = FrontEndIdeal

	cosim := small(DefaultConfig())
	cosim.FrontEnd = FrontEndCoSim
	cosim.Packets = 1

	blackBox := cosim
	blackBox.FrontEnd = FrontEndBlackBox

	cfo := behavioral
	cfo.CFOHz = 20e3

	hard := snr(behavioral, 7)
	hard.HardDecisions = true

	stop := snr(behavioral, 2)
	stop.Packets, stop.TargetErrors = 6, 1

	// With the ADC unquantized, the AGC resync history that carries from one
	// run to the next reaches the baseband bit for bit.
	agcCarry := snr(behavioral, 20)
	agcCarry.TuneRF = func(rc *rf.ReceiverConfig) { rc.ADC.Bits = 0 }

	lnaTune := func(a *rf.AmplifierConfig, v float64) { a.CompressionDBm = v }
	lnaBase := snr(behavioral, 20)

	rows := []struct {
		name   string
		points []Config
		cached bool
		runs   int
		slow   bool
		stops  bool // the row must end before its last packet
		own    bool // the points share no prefix: the attached cache stays unused
	}{
		{name: "ideal front end on a cached antenna", cached: true, runs: 1, points: []Config{
			point(snr(ideal, 10), StageNoise, 10), point(snr(ideal, 14), StageNoise, 14)}},
		{name: "pre-filter miss then hit", cached: true, runs: 1, points: []Config{
			filterPointConfig(fig5, 6e6, nil), filterPointConfig(fig5, 9e6, nil)}},
		{name: "cached antenna with own noise", cached: true, runs: 1, points: []Config{
			point(snr(behavioral, 6), StageNoise, 6), point(snr(behavioral, 12), StageNoise, 12)}},
		{name: "cached antenna with invariant noise", cached: true, runs: 1, points: []Config{
			lnaPointConfig(lnaBase, -30, nil, lnaTune), lnaPointConfig(lnaBase, -10, nil, lnaTune)}},
		{name: "channel sweep", cached: true, own: true, runs: 1, points: []Config{
			point(snr(cfo, 12), StageChannel, 12), point(snr(cfo, 16), StageChannel, 16)}},
		{name: "full chain with adjacent channel", runs: 2, points: []Config{adjacent}},
		{name: "ideal front end with adjacent channel and noise", runs: 1, points: []Config{idealAdjacent}},
		{name: "co-sim", runs: 2, slow: true, points: []Config{cosim}},
		{name: "black-box on a cached antenna", cached: true, runs: 1, slow: true, points: []Config{
			point(blackBox, StageFrontEnd, 1), point(blackBox, StageFrontEnd, 2)}},
		{name: "hard decisions", runs: 1, points: []Config{hard}},
		{name: "early stop", runs: 1, stops: true, points: []Config{stop}},
		{name: "three runs on one bench", runs: 3, points: []Config{agcCarry}},
	}
	for _, row := range rows {
		if row.slow && testing.Short() {
			continue
		}
		var gotCache, wantCache *sim.StageCache
		if row.cached {
			gotCache, wantCache = sim.NewStageCache(0), sim.NewStageCache(0)
		}
		for i, cfg := range row.points {
			gotCfg, wantCfg := cfg, cfg
			gotCfg.Cache, wantCfg.Cache = gotCache, wantCache
			bench, err := NewBench(gotCfg)
			if err != nil {
				t.Fatal(err)
			}
			ob, err := NewBench(wantCfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle := &seqOracle{b: ob}
			for r := 0; r < row.runs; r++ {
				got, err := bench.Run()
				if err != nil {
					t.Fatalf("%s point %d run %d: %v", row.name, i, r, err)
				}
				want, err := runSequential(oracle)
				if err != nil {
					t.Fatalf("%s point %d run %d: oracle: %v", row.name, i, r, err)
				}
				if what, ok := sameResult(got, want); !ok {
					t.Errorf("%s point %d run %d: %s differs: Run %+v EVM %+v, oracle %+v EVM %+v",
						row.name, i, r, what, got.Counter, got.EVM, want.Counter, want.EVM)
				}
				if row.stops && want.Counter.Packets >= cfg.Packets {
					t.Errorf("%s point %d run %d: oracle ran all %d packets; the row must stop early", row.name, i, r, cfg.Packets)
				}
				gs, ws := gotCache.Stats(), wantCache.Stats()
				if gs.Hits != ws.Hits || gs.Misses != ws.Misses {
					t.Errorf("%s point %d run %d: cache hits/misses %d/%d, oracle %d/%d",
						row.name, i, r, gs.Hits, gs.Misses, ws.Hits, ws.Misses)
				}
			}
		}
		switch st := gotCache.Stats(); {
		case row.own && (st.Hits != 0 || st.Misses != 0):
			t.Errorf("%s: cache stats %+v; points sharing no prefix must not use the cache", row.name, st)
		case row.cached && !row.own && (st.Hits == 0 || st.Misses == 0):
			t.Errorf("%s: cache stats %+v; the row must both miss and hit", row.name, st)
		}
	}
}
