package core

import (
	"math"
	"testing"

	"wlansim/internal/measure"
	"wlansim/internal/seed"
)

// batchSweepConfigs builds B equal-config behavioral noise-sweep points
// exactly the way the waterfall harness does, sharing one stage cache.
func batchSweepConfigs(base Config, rate int, snrs []float64) []Config {
	rateSeed := seed.ForSeries(base.Seed, uint64(rate))
	cache := newSweepCache(base)
	cfgs := make([]Config, len(snrs))
	for i, snr := range snrs {
		cfg := base
		cfg.Seed = seed.ForPoint(rateSeed, snr)
		cfg.ContentSeed = rateSeed
		cfg.SweptStage = StageNoise
		cfg.Cache = cache
		cfg.RateMbps = rate
		cfg.FrontEnd = FrontEndBehavioral
		cfg.Interferers = nil
		s := snr
		cfg.ChannelSNRdB = &s
		cfgs[i] = cfg
	}
	return cfgs
}

func batchBase() Config {
	base := DefaultConfig()
	base.Packets = 2
	base.PSDULen = 40
	base.Seed = 1
	return base
}

// TestRunBenchBatchMatchesSequential is the system-level differential test:
// every lane of RunBenchBatch must reproduce NewBench(cfg).Run() exactly —
// error counts, packet accounting and EVM, at the golden rates 6/24/54.
func TestRunBenchBatchMatchesSequential(t *testing.T) {
	base := batchBase()
	snrs := []float64{8, 12, 16, 20}
	for _, rate := range []int{6, 24, 54} {
		cfgs := batchSweepConfigs(base, rate, snrs)
		got, err := RunBenchBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for l, cfg := range cfgs {
			bench, err := NewBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bench.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got[l].Counter != want.Counter {
				t.Errorf("%d Mbps lane %d (SNR %g): batch counter %+v != sequential %+v",
					rate, l, snrs[l], got[l].Counter, want.Counter)
			}
			if math.Float64bits(got[l].EVM.RMS) != math.Float64bits(want.EVM.RMS) ||
				got[l].EVM.Symbols != want.EVM.Symbols {
				t.Errorf("%d Mbps lane %d (SNR %g): batch EVM %+v != sequential %+v",
					rate, l, snrs[l], got[l].EVM, want.EVM)
			}
		}
	}
}

// TestRunBenchBatchEarlyStop pins the per-lane TargetErrors accounting: a
// lane that reaches its error target drops out of later batches at exactly
// the packet its sequential run would have stopped, without disturbing the
// remaining lanes.
func TestRunBenchBatchEarlyStop(t *testing.T) {
	base := batchBase()
	base.Packets = 4
	base.TargetErrors = 1
	snrs := []float64{0, 4, 25, 30} // low-SNR lanes stop early, high-SNR lanes run out
	cfgs := batchSweepConfigs(base, 24, snrs)
	got, err := RunBenchBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for l, cfg := range cfgs {
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got[l].Counter != want.Counter {
			t.Errorf("lane %d (SNR %g): batch counter %+v != sequential %+v",
				l, snrs[l], got[l].Counter, want.Counter)
		}
	}
}

// TestRunBenchBatchRejectsMixedConfigs pins the gate for noise lanes: lanes
// differing beyond Seed, ChannelSNRdB, the channel filter, Packets,
// TargetErrors and the cache, or off the behavioral front end, are rejected
// rather than silently mis-batched, while a group of one is accepted. The
// filter-lane rows are in TestFilterLanesRejectMixedGroups.
func TestRunBenchBatchRejectsMixedConfigs(t *testing.T) {
	base := batchBase()
	good := batchSweepConfigs(base, 24, []float64{10, 14})

	rateMix := batchSweepConfigs(base, 24, []float64{10, 14})
	rateMix[1].RateMbps = 6
	ideal := batchSweepConfigs(base, 24, []float64{10, 14})
	ideal[0].FrontEnd = FrontEndIdeal
	noSNR := batchSweepConfigs(base, 24, []float64{10, 14})
	noSNR[1].ChannelSNRdB = nil
	wrongStage := batchSweepConfigs(base, 24, []float64{10, 14})
	wrongStage[0].SweptStage = StageFrontEnd

	for name, cfgs := range map[string][]Config{
		"rate mix": rateMix, "ideal front end": ideal,
		"missing SNR": noSNR, "wrong stage": wrongStage,
		"no lanes": nil,
	} {
		if _, err := RunBenchBatch(cfgs); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
	if _, err := RunBenchBatch(good[:1]); err != nil {
		t.Errorf("single lane: batch rejected: %v", err)
	}
}

// TestGoldenBERBatchingInvariant is the golden fixed-seed regression for the
// batch dispatch: the behavioral waterfall at 6/24/54 Mbit/s must be
// byte-identical with batching off, batching on (full and ragged groups),
// and across worker counts 1 and 8 under the same batch width.
func TestGoldenBERBatchingInvariant(t *testing.T) {
	base := batchBase()
	rates := []int{6, 24, 54}
	snrs := []float64{8, 12, 16, 20}

	run := func(batch, workers int) *measure.Figure {
		t.Helper()
		cfg := base
		cfg.Batch = batch
		cfg.Workers = workers
		fig, err := WaterfallBERvsSNROnFrontEnd(cfg, FrontEndBehavioral, rates, snrs)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}

	ref := run(0, 1)
	for _, v := range []struct {
		name           string
		batch, workers int
	}{
		{"batch=4 workers=1", 4, 1},
		{"batch=3 workers=1 (ragged tail)", 3, 1},
		{"batch=4 workers=8", 4, 8},
		{"batch=0 workers=8", 0, 8},
	} {
		fig := run(v.batch, v.workers)
		if len(fig.Series) != len(ref.Series) {
			t.Fatalf("%s: %d series, want %d", v.name, len(fig.Series), len(ref.Series))
		}
		for si, series := range fig.Series {
			want := ref.Series[si].Points
			if len(series.Points) != len(want) {
				t.Fatalf("%s series %d: %d points, want %d", v.name, si, len(series.Points), len(want))
			}
			for pi, p := range series.Points {
				// Point is a struct of float64/int fields; == is bit-level
				// equality apart from distinguishing -0 (none are produced).
				if p != want[pi] {
					t.Errorf("%s: rate %d point %d: %+v != reference %+v",
						v.name, rates[si], pi, p, want[pi])
				}
			}
		}
	}
}
