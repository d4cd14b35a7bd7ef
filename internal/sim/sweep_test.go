package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"wlansim/internal/measure"
)

// Basic RunPointBatch/Values validation lives in TestSweepValidation
// (graph_test.go); this file covers the parallel executor.

// pointwise lifts a per-value point function to a RunPointBatch that
// evaluates each value of its group in turn.
func pointwise(run func(v float64) (measure.Point, error)) func([]float64) ([]measure.Point, error) {
	return func(vs []float64) ([]measure.Point, error) {
		pts := make([]measure.Point, len(vs))
		for i, v := range vs {
			p, err := run(v)
			if err != nil {
				return nil, err
			}
			pts[i] = p
		}
		return pts, nil
	}
}

// precomputed returns a RunPointBatch over values that serves every group
// from one table of run(v) built up front, so the executor's own allocations
// are all that remain to measure.
func precomputed(values []float64, run func(v float64) measure.Point) func([]float64) ([]measure.Point, error) {
	table := make([]measure.Point, len(values))
	index := make(map[float64]int, len(values))
	for i, v := range values {
		table[i] = run(v)
		index[v] = i
	}
	return func(vs []float64) ([]measure.Point, error) {
		i := index[vs[0]]
		return table[i : i+len(vs)], nil
	}
}

// TestSweepWorkersIdenticalSeries is the package-level determinism gate:
// the same sweep executed serially and on many workers must produce a
// byte-identical series, including the statistical annotations.
func TestSweepWorkersIdenticalSeries(t *testing.T) {
	values := Linspace(-10, 10, 17)
	build := func(workers int) *Sweep {
		return &Sweep{
			Name:    "parabola",
			Values:  values,
			Workers: workers,
			RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
				y := v * v
				return measure.Point{Y: y, CILo: y - 1, CIHi: y + 1, Bits: int(v) + 100}, nil
			}),
		}
	}
	ref, err := build(1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8, 33} {
		got, err := build(workers).Execute()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d series differs from serial run:\n%+v\nvs\n%+v", workers, got, ref)
		}
	}
}

func TestSweepErrorDeterministic(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		s := &Sweep{
			Name:    "failing",
			Values:  []float64{1, 2, 3, 4, 5, 6, 7, 8},
			Workers: workers,
			RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
				if v >= 3 { // several failing points; the lowest must win
					return measure.Point{}, fmt.Errorf("%w at %g", sentinel, v)
				}
				return measure.Point{Y: v}, nil
			}),
		}
		_, err := s.Execute()
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error chain broken: %v", workers, err)
		}
		want := `sweep "failing" at 3`
		if got := err.Error(); !strings.Contains(got, want) {
			t.Errorf("workers=%d: error %q, want the lowest failing value (%q)", workers, got, want)
		}
	}
}

// TestSweepStampsX pins that the executor overwrites each point's X with
// its swept value, for groups of one and one group of all values alike.
func TestSweepStampsX(t *testing.T) {
	for _, groups := range []int{0, 1} {
		s := &Sweep{
			Name:   "x",
			Values: []float64{4, 2}, // unsorted on purpose: series sorts by X
			Groups: groups,
			RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
				return measure.Point{X: 999, Y: v}, nil // X must be overwritten
			}),
		}
		series, err := s.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if series.Points[0].X != 2 || series.Points[1].X != 4 {
			t.Errorf("groups=%d: X values %v", groups, series.Points)
		}
	}
}

func TestSweepWorkersClampedToValues(t *testing.T) {
	var peak atomic.Int64
	var inflight atomic.Int64
	s := &Sweep{
		Name:    "clamp",
		Values:  []float64{1, 2},
		Workers: 64,
		RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			inflight.Add(-1)
			return measure.Point{Y: v}, nil
		}),
	}
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 2 {
		t.Errorf("%d concurrent points for a 2-value sweep", peak.Load())
	}
}

// TestSweepExecutorBuffersPooled gates the parallel executor's steady-state
// allocation count: after a warm-up Execute has stocked the scratch pool, a
// repeat sweep of the same size allocates only the result series and the
// worker goroutines — the point/error/completion buffers and the completion
// channel come from sweepScratchPool. The budget leaves slack for an
// occasional GC clearing the pool mid-measurement.
func TestSweepExecutorBuffersPooled(t *testing.T) {
	values := Linspace(0, 15, 16)
	s := &Sweep{
		Name:    "pooled",
		Values:  values,
		Workers: 4,
		RunPointBatch: precomputed(values, func(v float64) measure.Point {
			return measure.Point{Y: 2 * v}
		}),
	}
	if _, err := s.Execute(); err != nil { // warm the pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := s.Execute(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 12
	if n > budget {
		t.Errorf("parallel Execute allocates %.1f objects/run, budget %d", n, budget)
	}
}

// TestSweepOnPointDoneFullPrefixOrder pins the OnPointDone contract the sweep
// service streams through: the hook sees the fully annotated points (CI
// bounds, sample counts), in Values order, for each completed prefix, and
// exactly the points the returned series carries.
func TestSweepOnPointDoneFullPrefixOrder(t *testing.T) {
	values := Linspace(0, 11, 12)
	var streamed []measure.Point
	s := &Sweep{
		Name:    "stream",
		Values:  values,
		Workers: 6,
		RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
			return measure.Point{Y: 3 * v, CILo: 3*v - 0.5, CIHi: 3*v + 0.5, Bits: int(v) * 100, Errors: int(v)}, nil
		}),
		// The hook runs on the collector goroutine only; appending without a
		// lock is safe, and the order must be the serial order.
		OnPointDone: func(p measure.Point) { streamed = append(streamed, p) },
	}
	series, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, series.Points) {
		t.Errorf("OnPointDone stream differs from series:\n%+v\nvs\n%+v", streamed, series.Points)
	}
}

// TestSweepScratchPooledAcrossConcurrentExecutes is the daemon-shaped allocs
// gate: several goroutines running independent sweeps back to back (the
// sweep service's concurrent jobs) share sweepScratchPool instead of each
// growing private executor buffers. After a warm-up round has stocked the
// pool with one scratch per lane, a full concurrent round stays within the
// same small per-Execute budget as the single-job gate above.
func TestSweepScratchPooledAcrossConcurrentExecutes(t *testing.T) {
	const jobs = 4
	run := precomputed(Linspace(0, 31, 32), func(v float64) measure.Point { return measure.Point{Y: v + 1} })
	build := func() *Sweep {
		return &Sweep{
			Name:          "job",
			Values:        Linspace(0, 31, 32),
			Workers:       2,
			RunPointBatch: run,
		}
	}
	round := func() {
		done := make(chan error, jobs)
		for j := 0; j < jobs; j++ {
			go func() {
				_, err := build().Execute()
				done <- err
			}()
		}
		for j := 0; j < jobs; j++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}
	round() // warm the pool with one scratch per concurrent lane
	n := testing.AllocsPerRun(20, round)
	// Budget: per job, the series + its points backing array + the sweep
	// struct + closures + goroutine/channel plumbing — but no scratch
	// buffers. A pool miss after a GC costs 4 allocations; the slack
	// absorbs an occasional one without letting per-job scratch growth
	// (4 allocs * jobs every run) back in.
	const budget = 24 * jobs
	if n > budget {
		t.Errorf("concurrent Executes allocate %.1f objects/round, budget %d", n, budget)
	}
}

// TestSweepScratchPoolReleasesErrors checks the pool retains no caller error
// references: a failing sweep must not leave its errors reachable from the
// pooled scratch handed to the next Execute.
func TestSweepScratchPoolReleasesErrors(t *testing.T) {
	fail := errors.New("point failed")
	s := &Sweep{
		Name:    "failing",
		Values:  []float64{0, 1, 2, 3},
		Workers: 2,
		RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
			if v == 2 {
				return measure.Point{}, fail
			}
			return measure.Point{Y: v}, nil
		}),
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("expected error")
	}
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	for i, e := range sc.errs {
		if e != nil {
			t.Errorf("pooled scratch retains error at %d: %v", i, e)
		}
	}
}
