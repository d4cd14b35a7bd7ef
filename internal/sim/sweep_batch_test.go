package sim

import (
	"errors"
	"sync"
	"testing"

	"wlansim/internal/measure"
)

// batchRecorder builds a sweep whose RunPointBatch computes a deterministic
// function of each swept value, recording the groups it was called with.
type batchRecorder struct {
	mu     sync.Mutex
	groups [][]float64
}

func (r *batchRecorder) sweep(values []float64, groups, workers int) *Sweep {
	return &Sweep{
		Name:    "batched",
		Values:  values,
		Workers: workers,
		Groups:  groups,
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			group := append([]float64(nil), vs...)
			pts := make([]measure.Point, len(vs))
			for i, v := range vs {
				pts[i] = measure.Point{Y: 3 * v, Bits: int(v) + 1}
			}
			r.mu.Lock()
			r.groups = append(r.groups, group)
			r.mu.Unlock()
			return pts, nil
		},
	}
}

// TestSweepBatchDispatch pins the groups dispatch against groups of one:
// with Groups every value is in exactly one group, and the series is
// identical to the same sweep run one value per group, in value order, for
// serial and parallel execution alike.
func TestSweepBatchDispatch(t *testing.T) {
	values := Linspace(1, 10, 10)
	ref, err := (&batchRecorder{}).sweep(values, 0, 1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rec := &batchRecorder{}
		series, err := rec.sweep(values, 3, workers).Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(series.Points) != len(ref.Points) {
			t.Fatalf("workers=%d: %d points for %d values", workers, len(series.Points), len(values))
		}
		for i, p := range series.Points {
			if p != ref.Points[i] {
				t.Errorf("workers=%d point %d: got %+v, groups of one %+v", workers, i, p, ref.Points[i])
			}
		}
		served := 0
		for _, g := range rec.groups {
			served += len(g)
		}
		if len(rec.groups) != 3 || served != len(values) {
			t.Fatalf("workers=%d: %d values in %d groups, want %d in 3", workers, served, len(rec.groups), len(values))
		}
	}
}

// TestSweepBatchSizeOne pins the default grouping: Groups <= 0 runs every
// value as a group of its own.
func TestSweepBatchSizeOne(t *testing.T) {
	values := Linspace(0, 5, 6)
	for _, groups := range []int{0, -1} {
		rec := &batchRecorder{}
		if _, err := rec.sweep(values, groups, 1).Execute(); err != nil {
			t.Fatal(err)
		}
		if len(rec.groups) != len(values) {
			t.Fatalf("Groups=%d: %d groups for %d values", groups, len(rec.groups), len(values))
		}
		for i, g := range rec.groups {
			if len(g) != 1 || g[0] != values[i] {
				t.Errorf("Groups=%d: group %d is %v, want [%g]", groups, i, g, values[i])
			}
		}
	}
}

// TestSweepBatchCountMismatch pins that a batch runner returning the wrong
// number of points is an executor error, not a silent truncation.
func TestSweepBatchCountMismatch(t *testing.T) {
	s := &Sweep{
		Name:    "short",
		Values:  Linspace(0, 3, 4),
		Groups:  2,
		Workers: 1,
		RunPointBatch: func(vs []float64) ([]measure.Point, error) {
			return make([]measure.Point, len(vs)-1), nil
		},
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("short batch result did not error")
	}
}

// TestSweepBatchErrorPropagates pins deterministic error reporting through
// groups: the lowest failing work unit wins under any worker count.
func TestSweepBatchErrorPropagates(t *testing.T) {
	fail := errors.New("batch point failed")
	for _, workers := range []int{1, 3} {
		s := &Sweep{
			Name:    "failing",
			Values:  Linspace(0, 7, 8),
			Groups:  3,
			Workers: workers,
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
// most one (larger groups first), each passed to RunPointBatch unpadded,
// and the series matches the values in order for serial and parallel
// execution alike.
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
			series, err := rec.sweep(values, tc.groups, workers).Execute()
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
