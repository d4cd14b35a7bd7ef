package core

import (
	"reflect"
	"testing"

	"wlansim/internal/measure"
	"wlansim/internal/sim"
)

// This file is the executable contract of the invariant-prefix stage cache:
// caching is a pure wall-clock optimization, never a physics change. Every
// test compares full result structures (error counters, EVM accumulations,
// confidence annotations) with reflect.DeepEqual — byte-identity, not
// tolerance-level agreement.

// runGoldenWithCache runs one golden scenario as an SNR-sweep point would,
// with the given cache attachment.
func runGoldenWithCache(t *testing.T, rate int, snr float64, cache *sim.StageCache) *Result {
	t.Helper()
	cfg := goldenConfig(rate, snr)
	cfg.SweptStage = StageNoise
	cfg.ContentSeed = cfg.Seed
	cfg.Cache = cache
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

// TestGoldenBERCacheOnOffIdentical pins the cache's central invariant on the
// golden regression table: every golden point measures byte-identically with
// the stage cache disabled, on a cache miss, and on a cache hit.
func TestGoldenBERCacheOnOffIdentical(t *testing.T) {
	for _, row := range goldenBER {
		uncached := runGoldenWithCache(t, row.RateMbps, row.SNRdB, nil)
		cache := sim.NewStageCache(0)
		miss := runGoldenWithCache(t, row.RateMbps, row.SNRdB, cache)
		hit := runGoldenWithCache(t, row.RateMbps, row.SNRdB, cache)
		if cache.Stats().Hits == 0 {
			t.Fatalf("%d Mbps at %g dB: second cached run produced no hits", row.RateMbps, row.SNRdB)
		}
		if !reflect.DeepEqual(uncached, miss) {
			t.Errorf("%d Mbps at %g dB: cache-miss result differs from uncached:\nuncached: %+v\ncached:   %+v",
				row.RateMbps, row.SNRdB, uncached, miss)
		}
		if !reflect.DeepEqual(uncached, hit) {
			t.Errorf("%d Mbps at %g dB: cache-hit result differs from uncached:\nuncached: %+v\ncached:   %+v",
				row.RateMbps, row.SNRdB, uncached, hit)
		}
	}
}

// stripCacheStats zeroes the cache counters so cache-on and cache-off series
// can be compared for the physics content alone (the counters legitimately
// differ: that is what the toggle changes).
func stripCacheStats(fig *measure.Figure) {
	for i := range fig.Series {
		fig.Series[i].Cache = measure.CacheStats{}
	}
}

// TestSweepsCacheOnOffIdentical toggles DisableStageCache on representative
// sweeps of each swept stage — front-end filter (pre-filter prefix), LNA
// nonlinearity (antenna prefix with invariant noise) and SNR on the ideal
// front end (noiseless antenna prefix) — and requires byte-identical
// measurement series.
func TestSweepsCacheOnOffIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps too slow for -short")
	}
	type variant struct {
		name string
		run  func(base Config) (*measure.Series, error)
		base func() Config
	}
	variants := []variant{
		{
			name: "FilterBandwidthSweep",
			base: Figure5Config,
			run: func(base Config) (*measure.Series, error) {
				return FilterBandwidthSweep(base, []float64{6e6, 9.5e6, 14e6})
			},
		},
		{
			name: "IP3Sweep",
			base: Figure6Config,
			run: func(base Config) (*measure.Series, error) {
				return IP3Sweep(base, []float64{-20, -8, 5}, true)
			},
		},
		{
			name: "EVMvsSNR",
			base: DefaultConfig,
			run: func(base Config) (*measure.Series, error) {
				return EVMvsSNR(base, []float64{10, 18, 26})
			},
		},
	}
	for _, v := range variants {
		base := v.base()
		base.Packets = 1
		base.PSDULen = 40
		base.Workers = 2

		base.DisableStageCache = false
		cached, err := v.run(base)
		if err != nil {
			t.Fatal(err)
		}
		base.DisableStageCache = true
		uncached, err := v.run(base)
		if err != nil {
			t.Fatal(err)
		}
		if !cached.Cache.Enabled {
			t.Errorf("%s: cached run reports no cache stats", v.name)
		}
		if uncached.Cache.Enabled {
			t.Errorf("%s: DisableStageCache run still reports cache stats", v.name)
		}
		cached.Cache = measure.CacheStats{}
		uncached.Cache = measure.CacheStats{}
		if !reflect.DeepEqual(cached, uncached) {
			t.Errorf("%s: cache-on series differs from cache-off:\non:  %+v\noff: %+v",
				v.name, cached, uncached)
		}
	}
}

// TestWaterfallCacheOnOffIdentical covers the multi-curve figure harness
// (per-rate caches) the same way.
func TestWaterfallCacheOnOffIdentical(t *testing.T) {
	base := DefaultConfig()
	base.Packets = 1
	base.PSDULen = 40
	base.Workers = 2
	rates := []int{6, 54}
	snrs := []float64{5, 30}

	base.DisableStageCache = false
	cached, err := WaterfallBERvsSNR(base, rates, snrs)
	if err != nil {
		t.Fatal(err)
	}
	base.DisableStageCache = true
	uncached, err := WaterfallBERvsSNR(base, rates, snrs)
	if err != nil {
		t.Fatal(err)
	}
	stripCacheStats(cached)
	stripCacheStats(uncached)
	if !reflect.DeepEqual(cached, uncached) {
		t.Errorf("waterfall figure differs between cache on and off")
	}
}

// TestFilterSweepCacheHitRate pins the cache efficiency of the flagship
// RF-parameter sweep at its theoretical maximum: with P packets and E edges,
// each packet's pre-filter prefix is computed exactly once (P misses) and
// served to every other point (P*(E-1) hits), with no evictions under the
// default budget.
func TestFilterSweepCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep too slow for -short")
	}
	base := Figure5Config()
	base.Packets = 2
	base.PSDULen = 40
	base.Workers = 2
	edges := []float64{6e6, 8e6, 10e6, 14e6}
	series, err := FilterBandwidthSweep(base, edges)
	if err != nil {
		t.Fatal(err)
	}
	st := series.Cache
	if !st.Enabled {
		t.Fatal("sweep did not attach a stage cache")
	}
	wantMisses := int64(base.Packets)
	wantHits := int64(base.Packets * (len(edges) - 1))
	if st.Misses != wantMisses || st.Hits != wantHits {
		t.Errorf("cache stats %d hits / %d misses, want %d / %d (hit-rate regression: the swept-stage declaration or key derivation changed)",
			st.Hits, st.Misses, wantHits, wantMisses)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions (%d) under the default budget", st.Evictions)
	}
	if st.PeakBytes <= 0 || st.BytesInUse <= 0 {
		t.Errorf("byte accounting missing: peak %d, in use %d", st.PeakBytes, st.BytesInUse)
	}
}

// TestSNRSweepNoiseNotReused is the negative control for the SNR fast path:
// the cached noiseless antenna waveform is shared across points, but the
// noise itself must be re-drawn from each point's own seed. Two points at the
// same SNR with different point seeds share every cached stage, so if the
// noise were (incorrectly) part of the cached content — or drawn from the
// shared content seed — their continuous-valued EVM measurements would
// coincide exactly.
func TestSNRSweepNoiseNotReused(t *testing.T) {
	cache := sim.NewStageCache(0)
	run := func(pointSeed int64) *Result {
		cfg := DefaultConfig()
		cfg.FrontEnd = FrontEndIdeal
		cfg.Packets = 2
		cfg.PSDULen = 40
		cfg.Seed = pointSeed
		cfg.ContentSeed = 12345
		cfg.SweptStage = StageNoise
		cfg.Cache = cache
		snr := 15.0
		cfg.ChannelSNRdB = &snr
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
	a := run(111)
	b := run(222)
	if cache.Stats().Hits == 0 {
		t.Fatal("points did not share the cached antenna waveform — the test no longer exercises the fast path")
	}
	if a.EVM.RMS == b.EVM.RMS {
		t.Errorf("EVM identical (%.12g) across points with different seeds: noise realization is being reused",
			a.EVM.RMS)
	}
	if a.EVM.RMS <= 0 || b.EVM.RMS <= 0 {
		t.Errorf("EVM not measured (a=%g, b=%g): noise test has no discriminating power", a.EVM.RMS, b.EVM.RMS)
	}
}

// TestPreFilterPrefixEquivalence pins the newest and most aggressive prefix —
// the behavioral front-end segment upstream of the channel-select filter —
// against the unsplit chain: with SweptFrontEndFilterOnly the cached run must
// reproduce the flag-off run byte-identically, on both the miss and the hit
// path.
func TestPreFilterPrefixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("behavioral front end too slow for -short")
	}
	run := func(filterOnly bool, cache *sim.StageCache) *Result {
		cfg := Figure5Config()
		cfg.Packets = 1
		cfg.PSDULen = 40
		cfg.Seed = 42
		cfg.ContentSeed = 7
		cfg.SweptStage = StageFrontEnd
		cfg.SweptFrontEndFilterOnly = filterOnly
		cfg.Cache = cache
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
	plain := run(false, nil)
	cache := sim.NewStageCache(0)
	miss := run(true, cache)
	hit := run(true, cache)
	if cache.Stats().Hits == 0 {
		t.Fatal("second run did not hit the pre-filter cache")
	}
	if !reflect.DeepEqual(plain, miss) {
		t.Errorf("pre-filter split (miss) differs from unsplit chain:\nunsplit: %+v\nsplit:   %+v", plain, miss)
	}
	if !reflect.DeepEqual(plain, hit) {
		t.Errorf("pre-filter replay (hit) differs from unsplit chain:\nunsplit: %+v\nreplay:  %+v", plain, hit)
	}
}

// TestStageParamsCoverConfig pins the stage dependency tags against the
// Config struct: every field must be claimed by exactly one stage, so a new
// configuration knob cannot silently join a cached prefix without an explicit
// decision about which stage it first affects.
func TestStageParamsCoverConfig(t *testing.T) {
	claimed := map[string]Stage{}
	for stage, fields := range StageParams {
		for _, f := range fields {
			if prev, dup := claimed[f]; dup {
				t.Errorf("field %q tagged at both %v and %v", f, prev, stage)
			}
			claimed[f] = stage
		}
	}
	cfgType := reflect.TypeOf(Config{})
	for i := 0; i < cfgType.NumField(); i++ {
		name := cfgType.Field(i).Name
		if _, ok := claimed[name]; !ok {
			t.Errorf("Config.%s is not tagged in StageParams: declare which stage it first affects", name)
		}
		delete(claimed, name)
	}
	for f := range claimed {
		t.Errorf("StageParams tags %q, which is not a Config field", f)
	}
}
