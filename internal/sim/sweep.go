package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wlansim/internal/measure"
)

// Sweep is the simulation-manager facility for measuring a metric versus a
// swept parameter (paper §4.1: "The simulation manager allows to setup
// parameter sweeps"). Points are independent simulations, so the sweep can
// fan them out across Workers goroutines; results are bit-identical for
// every worker count because each point must derive its randomness from the
// swept value (see internal/seed), never from shared mutable state, and
// points are collected and reported in deterministic order.
type Sweep struct {
	// Name labels the resulting series.
	Name string
	// XLabel and YLabel document the axes.
	XLabel string
	YLabel string
	// Values are the parameter values to visit, in order.
	Values []float64
	// RunPointBatch evaluates a group of consecutive swept values and
	// returns one measurement point (metric plus confidence interval and
	// sample counts) per value, in order; each point's X is overwritten
	// with its swept value. The series must not depend on the grouping:
	// every group is one work unit, and its points must be what the same
	// values would give in groups of one.
	RunPointBatch func(values []float64) ([]measure.Point, error)
	// Groups partitions Values into that many contiguous groups (at most
	// one per value) whose sizes differ by at most one, each evaluated with
	// one RunPointBatch call. Zero or negative means one group per value.
	Groups int
	// OnPointDone, if set, is called after each point with the fully
	// annotated measurement (confidence interval, sample counts): in Values
	// order, for each completed prefix, from the collector goroutine only.
	// The sweep service streams completed prefixes to clients through this
	// hook.
	OnPointDone func(p measure.Point)
	// Workers is the number of groups evaluated concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0); 1 runs serially. The resulting
	// series does not depend on Workers.
	Workers int
}

// sweepScratch holds the parallel executor's per-Execute buffers so repeated
// sweeps (parameter studies run point grids back to back) do not re-allocate
// them. The done channel is reusable because the collector drains exactly one
// completion per work unit before Execute returns it to the pool.
type sweepScratch struct {
	pts       []measure.Point // flat, indexed by Values position
	errs      []error         // per work unit
	completed []bool          // per work unit
	done      chan int
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// acquireSweepScratch returns pooled buffers sized (and zeroed) for units
// work units (groups of points) over points swept values.
func acquireSweepScratch(units, points int) *sweepScratch {
	sc := sweepScratchPool.Get().(*sweepScratch)
	if cap(sc.pts) < points {
		sc.pts = make([]measure.Point, points)
	}
	if cap(sc.errs) < units {
		sc.errs = make([]error, units)
		sc.completed = make([]bool, units)
	}
	sc.pts = sc.pts[:points]
	sc.errs = sc.errs[:units]
	sc.completed = sc.completed[:units]
	for i := range sc.pts {
		sc.pts[i] = measure.Point{}
	}
	for i := range sc.errs {
		sc.errs[i] = nil
		sc.completed[i] = false
	}
	if cap(sc.done) < units {
		sc.done = make(chan int, units)
	}
	return sc
}

// release returns the scratch to the pool. Points and flags are plain values,
// but errors reference caller state — drop them so the pool retains nothing.
func (sc *sweepScratch) release() {
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	sweepScratchPool.Put(sc)
}

// sweepChunk is one schedulable work unit: the half-open Values index range
// [start, end) of one RunPointBatch call.
type sweepChunk struct {
	start, end int
}

// chunks partitions Values into Groups balanced work units, or one per value
// when Groups <= 0.
func (s *Sweep) chunks() []sweepChunk {
	n := len(s.Values)
	g := n
	if s.Groups > 0 {
		g = min(s.Groups, n)
	}
	out := make([]sweepChunk, g)
	start := 0
	for i := range out {
		end := start + n/g
		if i < n%g {
			end++
		}
		out[i] = sweepChunk{start: start, end: end}
		start = end
	}
	return out
}

// runChunkInto evaluates one work unit into dst (length c.end-c.start, in
// Values order, X stamped on return).
func (s *Sweep) runChunkInto(c sweepChunk, dst []measure.Point) error {
	values := s.Values[c.start:c.end]
	pts, err := s.RunPointBatch(values)
	if err != nil {
		return fmt.Errorf("sim: sweep %q at %g: %w", s.Name, values[0], err)
	}
	if len(pts) != len(values) {
		return fmt.Errorf("sim: sweep %q at %g returned %d points for %d values",
			s.Name, values[0], len(pts), len(values))
	}
	copy(dst, pts)
	for i := range dst {
		dst[i].X = values[i]
	}
	return nil
}

// ResolveWorkers returns the number of workers a sweep with the given
// Workers setting runs on (before capping at its number of work units):
// workers itself when positive, runtime.GOMAXPROCS(0) otherwise.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Execute runs the sweep and collects the series.
func (s *Sweep) Execute() (*measure.Series, error) {
	if s.RunPointBatch == nil {
		return nil, fmt.Errorf("sim: sweep %q has no RunPointBatch function", s.Name)
	}
	if len(s.Values) == 0 {
		return nil, fmt.Errorf("sim: sweep %q has no values", s.Name)
	}
	chunks := s.chunks()
	workers := ResolveWorkers(s.Workers)
	if workers > len(chunks) {
		workers = len(chunks)
	}
	series := &measure.Series{
		Label: s.Name, XLabel: s.XLabel, YLabel: s.YLabel,
		Points: make([]measure.Point, 0, len(s.Values)),
	}
	addPoints := func(pts []measure.Point) {
		for _, p := range pts {
			series.AddPoint(p)
			if s.OnPointDone != nil {
				s.OnPointDone(p)
			}
		}
	}

	if workers == 1 {
		width := 0
		for _, c := range chunks {
			width = max(width, c.end-c.start)
		}
		buf := make([]measure.Point, width)
		for _, c := range chunks {
			dst := buf[:c.end-c.start]
			if err := s.runChunkInto(c, dst); err != nil {
				return nil, err
			}
			addPoints(dst)
		}
		return series, nil
	}

	// Worker pool over work units (groups of points). Each completed unit
	// is announced on done; the collector advances over the contiguous
	// completed prefix so AddPoint/OnPointDone observe exactly the
	// serial order. Workers never abort early: every unit sends exactly one
	// completion, which keeps the collector loop bounded and the error (the
	// lowest failing unit) deterministic.
	sc := acquireSweepScratch(len(chunks), len(s.Values))
	defer sc.release()
	pts, errs, done := sc.pts, sc.errs, sc.done
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				c := chunks[i]
				errs[i] = s.runChunkInto(c, pts[c.start:c.end])
				done <- i
			}
		}()
	}

	completed := sc.completed
	var firstErr error
	report := 0
	for n := 0; n < len(chunks); n++ {
		completed[<-done] = true
		for report < len(chunks) && completed[report] {
			if firstErr == nil {
				if err := errs[report]; err != nil {
					firstErr = err
				} else {
					c := chunks[report]
					addPoints(pts[c.start:c.end])
				}
			}
			report++
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return series, nil
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}
