package sim

import (
	"fmt"
	"testing"
	"time"

	"wlansim/internal/measure"
)

// BenchmarkSweepWorkersLatencyBound measures the executor's point overlap in
// isolation from CPU count: each point costs a fixed 5 ms of wall clock, so
// an executor that truly runs points concurrently finishes the 8-point sweep
// ~workers times faster even on a single-core machine. The CPU-bound
// companion (BenchmarkCompressionPointSweepWorkers in internal/core) shows
// the same scaling on real simulation work when >= that many cores exist.
func BenchmarkSweepWorkersLatencyBound(b *testing.B) {
	const pointCost = 5 * time.Millisecond
	values := Linspace(0, 7, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := &Sweep{
				Name:    "latency",
				Values:  values,
				Workers: workers,
				RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
					time.Sleep(pointCost)
					return measure.Point{Y: v}, nil
				}),
			}
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
