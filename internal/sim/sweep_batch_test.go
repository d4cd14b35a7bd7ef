package sim

import (
	"errors"
	"sync"
	"testing"

	"wlansim/internal/measure"
)

// batchRecorder builds a sweep whose scalar and batch runners compute the
// same deterministic function of the swept value, recording which dispatch
// served each value.
type batchRecorder struct {
	mu      sync.Mutex
	batched map[float64]bool
	groups  [][]float64
}

func (r *batchRecorder) sweep(values []float64, batchSize, workers int) *Sweep {
	r.batched = make(map[float64]bool)
	point := func(v float64) measure.Point {
		return measure.Point{Y: 3 * v, Bits: int(v) + 1}
	}
	return &Sweep{
		Name:      "batched",
		Values:    values,
		Workers:   workers,
		BatchSize: batchSize,
		RunPoint: func(v float64) (measure.Point, error) {
			r.mu.Lock()
			r.batched[v] = false
			r.mu.Unlock()
			return point(v), nil
		},
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			group := append([]float64(nil), vs...)
			pts := make([]measure.Point, len(vs))
			for i, v := range vs {
				pts[i] = point(v)
			}
			r.mu.Lock()
			r.groups = append(r.groups, group)
			for _, v := range vs {
				r.batched[v] = true
			}
			r.mu.Unlock()
			return pts, nil
		},
	}
}

// TestSweepBatchDispatch pins the grouping contract: every value is served by
// RunPointBatch in consecutive groups of exactly BatchSize — the ragged tail
// is padded with dummy repeats of its last value rather than degrading to the
// scalar path — and the series is identical to the scalar sweep in value
// order, for serial and parallel execution alike.
func TestSweepBatchDispatch(t *testing.T) {
	values := Linspace(1, 10, 10)
	for _, workers := range []int{1, 4} {
		rec := &batchRecorder{}
		s := rec.sweep(values, 4, workers)
		series, err := s.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(series.Points) != len(values) {
			t.Fatalf("workers=%d: %d points for %d values", workers, len(series.Points), len(values))
		}
		for i, p := range series.Points {
			want := measure.Point{X: values[i], Y: 3 * values[i], Bits: int(values[i]) + 1}
			if p != want {
				t.Errorf("workers=%d point %d: got %+v, want %+v", workers, i, p, want)
			}
			if !rec.batched[values[i]] {
				t.Errorf("workers=%d value %g: served by the scalar path, want batched", workers, values[i])
			}
		}
		if len(rec.groups) != 3 {
			t.Fatalf("workers=%d: %d batch groups dispatched, want 3", workers, len(rec.groups))
		}
		for _, g := range rec.groups {
			if len(g) != 4 {
				t.Errorf("workers=%d: batch group of %d values dispatched, want exactly 4", workers, len(g))
			}
		}
	}
}

// TestSweepBatchRaggedTailPadded pins the padding itself: the tail group is
// the tail values followed by repeats of the last one, its dummy points are
// discarded, and a single-value tail still never touches the scalar path.
func TestSweepBatchRaggedTailPadded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		values   []float64
		lastWant []float64
	}{
		{"tail of two", Linspace(1, 10, 10), []float64{9, 10, 10, 10}},
		{"tail of one", Linspace(1, 5, 5), []float64{5, 5, 5, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &batchRecorder{}
			s := rec.sweep(tc.values, 4, 1)
			series, err := s.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if len(series.Points) != len(tc.values) {
				t.Fatalf("%d points for %d values — dummy-lane points leaked into the series",
					len(series.Points), len(tc.values))
			}
			last := rec.groups[len(rec.groups)-1]
			if len(last) != len(tc.lastWant) {
				t.Fatalf("tail group has %d values, want %d", len(last), len(tc.lastWant))
			}
			for i, v := range last {
				if v != tc.lastWant[i] {
					t.Fatalf("tail group %v, want %v", last, tc.lastWant)
				}
			}
		})
	}
}

// TestSweepBatchSizeOne pins the fallback: BatchSize <= 1 never touches the
// batch runner even when one is set.
func TestSweepBatchSizeOne(t *testing.T) {
	rec := &batchRecorder{}
	s := rec.sweep(Linspace(0, 5, 6), 1, 1)
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if len(rec.groups) != 0 {
		t.Fatalf("BatchSize=1 dispatched %d batch groups", len(rec.groups))
	}
}

// TestSweepBatchCountMismatch pins that a batch runner returning the wrong
// number of points is an executor error, not a silent truncation.
func TestSweepBatchCountMismatch(t *testing.T) {
	s := &Sweep{
		Name:      "short",
		Values:    Linspace(0, 3, 4),
		BatchSize: 2,
		Workers:   1,
		RunPoint: func(v float64) (measure.Point, error) {
			return measure.Point{Y: v}, nil
		},
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			return make([]measure.Point, len(vs)-1), nil
		},
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("short batch result did not error")
	}
}

// TestSweepBatchErrorPropagates pins deterministic error reporting through
// the batched path: the lowest failing work unit wins under any worker count.
func TestSweepBatchErrorPropagates(t *testing.T) {
	fail := errors.New("batch point failed")
	for _, workers := range []int{1, 3} {
		s := &Sweep{
			Name:      "failing",
			Values:    Linspace(0, 7, 8),
			BatchSize: 3,
			Workers:   workers,
			RunPoint: func(v float64) (measure.Point, error) {
				return measure.Point{Y: v}, nil
			},
			RunPointBatch: func(vs []float64) ([]measure.Point, error) {
				if vs[0] == 3 { // the second group [3,4,5]
					return nil, fail
				}
				return make([]measure.Point, len(vs)), nil
			},
		}
		_, err := s.Execute()
		if !errors.Is(err, fail) {
			t.Fatalf("workers=%d: got %v, want wrapped %v", workers, err, fail)
		}
	}
}

// TestSweepGroupsBalancedUnpadded pins the Groups dispatch: the values split
// into min(Groups, len(Values)) contiguous groups whose sizes differ by at
// most one (larger groups first), each passed to RunPointBatch unpadded; no
// scalar runner is needed, and the series matches the values in order for
// serial and parallel execution alike.
func TestSweepGroupsBalancedUnpadded(t *testing.T) {
	for _, tc := range []struct {
		n, groups int
		sizes     []int
	}{
		{7, 2, []int{4, 3}},
		{6, 2, []int{3, 3}},
		{5, 4, []int{2, 1, 1, 1}},
		{2, 8, []int{1, 1}},
	} {
		for _, workers := range []int{1, 3} {
			rec := &batchRecorder{}
			values := Linspace(1, float64(tc.n), tc.n)
			s := rec.sweep(values, 0, workers)
			s.RunPoint = nil
			s.Groups = tc.groups
			series, err := s.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range series.Points {
				want := measure.Point{X: values[i], Y: 3 * values[i], Bits: int(values[i]) + 1}
				if p != want {
					t.Errorf("n=%d groups=%d workers=%d point %d: got %+v, want %+v",
						tc.n, tc.groups, workers, i, p, want)
				}
			}
			if len(series.Points) != tc.n || len(rec.groups) != len(tc.sizes) {
				t.Fatalf("n=%d groups=%d workers=%d: %d points in %d groups, want %d in %d",
					tc.n, tc.groups, workers, len(series.Points), len(rec.groups), tc.n, len(tc.sizes))
			}
			seen := map[float64]int{}
			for _, g := range rec.groups {
				seen[g[0]] = len(g)
			}
			start := 0
			for _, size := range tc.sizes {
				if got := seen[values[start]]; got != size {
					t.Errorf("n=%d groups=%d workers=%d: group at value %g has %d values, want %d",
						tc.n, tc.groups, workers, values[start], got, size)
				}
				start += size
			}
		}
	}
}
