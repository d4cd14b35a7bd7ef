package core

import (
	"fmt"
	"testing"
)

// BenchmarkCompressionPointSweepWorkers measures the wall-clock scaling of
// the parallel sweep executor on the Figure 6 compression-point sweep. The
// acceptance bar for the parallel-sweep work is >= 2x at 4 workers:
//
//	go test -bench BenchmarkCompressionPointSweepWorkers -benchtime 2x ./internal/core
//
// The points run as lane groups of RunBenchBatch, at least one group per
// worker. The series is identical across sub-benchmarks (asserted by the
// determinism tests), so the sub-benchmark times are directly comparable.
// Points here are pure CPU work, so the scaling only materializes with at
// least that many cores (GOMAXPROCS >= workers); on constrained machines use
// BenchmarkSweepWorkersLatencyBound (internal/sim), which isolates the
// executor's point overlap from the core count.
func BenchmarkCompressionPointSweepWorkers(b *testing.B) {
	cps := []float64{-30, -25, -20, -15, -10, -5, -2, 0}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			base := Figure6Config()
			base.Packets = 2
			base.PSDULen = 60
			base.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := CompressionPointSweep(base, cps, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
