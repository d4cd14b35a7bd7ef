package core

import (
	"runtime"
	"testing"
	"time"
)

// TestRunBenchBatchNoLeakedHelper pins that the packet loop's front-half
// helper goroutine exits on every return path, of RunBenchBatch and of
// Bench.Run (a one-lane group that starts a helper per Run): after a run of
// every packet, after an early-stop run in which every lane stops before the
// last packet, and after an error from the front half, the goroutine count
// is back at its baseline.
func TestRunBenchBatchNoLeakedHelper(t *testing.T) {
	baseline := runtime.NumGoroutine()
	checkBaseline := func(what string) {
		t.Helper()
		// The helper has signalled its exit before RunBenchBatch returns;
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
