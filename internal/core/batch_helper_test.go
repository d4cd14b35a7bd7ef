package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"wlansim/internal/measure"
)

// TestRunBenchBatchNoLeakedHelper pins that the packet loop's prefix-stage
// and lane-stage goroutines exit on every return path, of RunBenchBatch and
// of Bench.Run (a one-lane group that starts them per Run), on the antenna
// prefix (SNR lanes) and on the pre-filter prefix (a Figure 5 group): after
// a run of every packet, after an early-stop run in which every lane stops
// before the last packet, and after an error from the prefix stage, the
// goroutine count is back at its baseline.
func TestRunBenchBatchNoLeakedHelper(t *testing.T) {
	baseline := runtime.NumGoroutine()
	checkBaseline := func(what string) {
		t.Helper()
		// The stages have signalled their exit before RunBenchBatch returns;
		// give the runtime a moment to retire the goroutine.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines, baseline %d:\n%s", what,
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}

	base := batchBase()
	base.Packets = 3
	if _, err := RunBenchBatch(batchSweepConfigs(base, 24, []float64{8, 16, 24})); err != nil {
		t.Fatal(err)
	}
	checkBaseline("full run")

	stop := batchBase()
	stop.Packets = 6
	stop.TargetErrors = 1
	results, err := RunBenchBatch(batchSweepConfigs(stop, 24, []float64{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for l, res := range results {
		if res.Counter.Packets >= stop.Packets {
			t.Fatalf("early-stop lane %d ran %d of %d packets; the run must end early", l, res.Counter.Packets, stop.Packets)
		}
	}
	checkBaseline("early-stop run")

	bad := batchBase()
	bad.SampleClockPPM = -2e6 // a negative resampling ratio fails in the channel stage
	if _, err := RunBenchBatch(batchSweepConfigs(bad, 24, []float64{8, 16})); err == nil {
		t.Fatal("front-half error not returned")
	}
	checkBaseline("error return")

	fig5 := func(base Config, edges ...float64) []Config {
		cache := newSweepCache(base)
		cfgs := make([]Config, len(edges))
		for i, edge := range edges {
			cfgs[i] = filterPointConfig(base, edge, cache)
		}
		return cfgs
	}
	f5 := Figure5Config()
	f5.PSDULen = 40
	f5.Packets = 3
	if _, err := RunBenchBatch(fig5(f5, 6e6, 9e6, 12e6)); err != nil {
		t.Fatal(err)
	}
	checkBaseline("Figure 5 full run")

	f5stop := f5
	f5stop.Packets = 4
	f5stop.TargetErrors = 1 // both edges lose their first packet
	results, err = RunBenchBatch(fig5(f5stop, 5e6, 12e6))
	if err != nil {
		t.Fatal(err)
	}
	for l, res := range results {
		if res.Counter.Packets >= f5stop.Packets {
			t.Fatalf("Figure 5 early-stop lane %d ran %d of %d packets; the run must end early", l, res.Counter.Packets, f5stop.Packets)
		}
	}
	checkBaseline("Figure 5 early-stop run")

	f5bad := f5
	f5bad.SampleClockPPM = -2e6
	if _, err := RunBenchBatch(fig5(f5bad, 6e6, 9e6, 12e6)); err == nil {
		t.Fatal("Figure 5 prefix-stage error not returned")
	}
	checkBaseline("Figure 5 error return")

	run := func(cfg Config) (*Result, error) {
		t.Helper()
		bench, err := NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bench.Run()
	}
	if _, err := run(batchSweepConfigs(base, 24, []float64{8})[0]); err != nil {
		t.Fatal(err)
	}
	checkBaseline("Bench.Run full run")

	res, err := run(batchSweepConfigs(stop, 24, []float64{0})[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.Packets >= stop.Packets {
		t.Fatalf("early-stop Bench.Run ran %d of %d packets; the run must end early", res.Counter.Packets, stop.Packets)
	}
	checkBaseline("Bench.Run early-stop run")

	if _, err := run(batchSweepConfigs(bad, 24, []float64{8})[0]); err == nil {
		t.Fatal("Bench.Run front-half error not returned")
	}
	checkBaseline("Bench.Run error return")
}

// TestPrefixStageNoSpeculation pins the prefix stage's no-speculation rule
// on Figure 5 sweeps whose TargetErrors stops the lanes at different
// packets: a tight target, where no packet may start before the last one is
// accounted; a loose one, where the prefix stage runs two packets ahead
// until a lane nears its target; and 323, which the 12 MHz lane reaches in
// its second packet (326 errors) though one packet adds at most 320: a rule
// that looked only one unaccounted packet back would start its third. A packet the prefix stage started for a
// lane the serial loop had stopped would add a packet and a stage-cache
// lookup to that lane. So the sweep, grouped and in groups of one (Batch 1),
// must give the points and the cache hits and misses of the sequential
// oracle run point by point on one cache.
func TestPrefixStageNoSpeculation(t *testing.T) {
	base := Figure5Config()
	base.Packets = 8
	base.PSDULen = 40
	base.Workers = 2
	edges := []float64{5e6, 6e6, 9e6, 12e6}
	for _, target := range []int{60, 323, 700} {
		base.TargetErrors = target
		cache := newSweepCache(base)
		want := make([]measure.Point, len(edges))
		ran := map[int]bool{}
		for i, edge := range edges {
			b, err := NewBench(filterPointConfig(base, edge, cache))
			if err != nil {
				t.Fatal(err)
			}
			res, err := runSequential(&seqOracle{b: b})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res.Counter.Point()
			want[i].X = edge / 1e8
			ran[res.Counter.Packets] = true
		}
		if len(ran) < 2 {
			t.Fatalf("target %d: every point ran %v packets; the lanes must stop at different packets", target, ran)
		}
		wantCache := cache.Stats()
		for _, batch := range []int{0, 1} {
			cfg := base
			cfg.Batch = batch
			got, err := FilterBandwidthSweep(cfg, edges)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Points, want) {
				t.Errorf("target %d, Batch %d: points %+v, want the oracle's %+v", target, batch, got.Points, want)
			}
			if got.Cache.Hits != wantCache.Hits || got.Cache.Misses != wantCache.Misses {
				t.Errorf("target %d, Batch %d: %d hits / %d misses, want the oracle's %d / %d",
					target, batch, got.Cache.Hits, got.Cache.Misses, wantCache.Hits, wantCache.Misses)
			}
		}
	}
}
