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
	// Run builds and executes one simulation at the given parameter value
	// and returns the measured metric.
	Run func(value float64) (float64, error)
	// RunPoint, if set, takes precedence over Run and returns a full
	// measurement point (metric plus confidence interval and sample
	// counts). The point's X is overwritten with the swept value.
	RunPoint func(value float64) (measure.Point, error)
	// RunPointBatch, if set together with Groups > 0, evaluates a group of
	// consecutive swept values in one call (a lane runner) and returns one
	// point per value, in order. The resulting series must not depend on the
	// dispatch: a batch implementation is required to be bit-identical to its
	// scalar counterpart lane by lane, and each group is one work unit, so
	// worker-count independence is preserved unchanged.
	RunPointBatch func(values []float64) ([]measure.Point, error)
	// Groups, if > 0 together with RunPointBatch, partitions Values into
	// that many contiguous groups (at most one per value) whose sizes differ
	// by at most one, and evaluates each group with one RunPointBatch call;
	// Run/RunPoint may then be nil. Otherwise every value runs point by
	// point.
	Groups int
	// OnPoint, if set, is called after each point (progress reporting).
	// Under parallel execution it is still invoked in Values order, for
	// each completed prefix of the sweep.
	OnPoint func(value, metric float64)
	// OnPointDone, if set, is called after each point with the fully
	// annotated measurement (confidence interval, sample counts), under the
	// same ordering contract as OnPoint: in Values order, for each completed
	// prefix, from the collector goroutine only. The sweep service streams
	// completed prefixes to clients through this hook.
	OnPointDone func(p measure.Point)
	// Workers is the number of points evaluated concurrently. Zero or
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
// work units (single points or batch groups) over points swept values.
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
// [start, end), dispatched batched (RunPointBatch) or point by point.
type sweepChunk struct {
	start, end int
	batched    bool
}

// chunks partitions Values into work units: with Groups, that many balanced
// groups for RunPointBatch; otherwise every value is its own unit.
func (s *Sweep) chunks() []sweepChunk {
	n := len(s.Values)
	if s.RunPointBatch == nil || s.Groups <= 0 {
		out := make([]sweepChunk, n)
		for i := range out {
			out[i] = sweepChunk{start: i, end: i + 1}
		}
		return out
	}
	g := min(s.Groups, n)
	out := make([]sweepChunk, g)
	start := 0
	for i := range out {
		end := start + n/g
		if i < n%g {
			end++
		}
		out[i] = sweepChunk{start: start, end: end, batched: true}
		start = end
	}
	return out
}

// runChunkInto evaluates one work unit into dst (length c.end-c.start, in
// Values order, X stamped on return).
func (s *Sweep) runChunkInto(run func(value float64) (measure.Point, error), c sweepChunk, dst []measure.Point) error {
	values := s.Values[c.start:c.end]
	if c.batched {
		pts, err := s.RunPointBatch(values)
		if err != nil {
			return fmt.Errorf("sim: sweep %q batch at %g: %w", s.Name, values[0], err)
		}
		if len(pts) != len(values) {
			return fmt.Errorf("sim: sweep %q batch at %g returned %d points for %d values",
				s.Name, values[0], len(pts), len(values))
		}
		copy(dst, pts)
		for i := range dst {
			dst[i].X = values[i]
		}
		return nil
	}
	p, err := run(values[0])
	if err != nil {
		return fmt.Errorf("sim: sweep %q at %g: %w", s.Name, values[0], err)
	}
	p.X = values[0]
	dst[0] = p
	return nil
}

// runner normalizes Run/RunPoint into the point-returning form.
func (s *Sweep) runner() func(value float64) (measure.Point, error) {
	if s.RunPoint != nil {
		return s.RunPoint
	}
	if s.Run == nil {
		return nil
	}
	return func(value float64) (measure.Point, error) {
		y, err := s.Run(value)
		return measure.Point{Y: y}, err
	}
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
	run := s.runner()
	if run == nil && (s.RunPointBatch == nil || s.Groups <= 0) {
		return nil, fmt.Errorf("sim: sweep %q has no Run function", s.Name)
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
			if s.OnPoint != nil {
				s.OnPoint(p.X, p.Y)
			}
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
			if err := s.runChunkInto(run, c, dst); err != nil {
				return nil, err
			}
			addPoints(dst)
		}
		return series, nil
	}

	// Worker pool over work units (single points or batch groups). Each
	// completed unit is announced on done; the collector advances over the
	// contiguous completed prefix so AddPoint/OnPoint observe exactly the
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
				errs[i] = s.runChunkInto(run, c, pts[c.start:c.end])
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
