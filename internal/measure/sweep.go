package measure

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a swept measurement, optionally annotated
// with the statistical quality of the Y estimate. Its JSON form (see
// json.go) always carries every field: omitempty on the float columns would
// erase the sign of a negative zero and make the CI columns come and go
// between points.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// CILo and CIHi bound the 95% confidence interval of Y when the sweep
	// recorded one (BER sweeps do); both stay zero when not measured.
	CILo float64 `json:"ci95_lo"`
	CIHi float64 `json:"ci95_hi"`
	// Bits and Errors are the underlying Monte-Carlo sample counts behind
	// Y for error-rate measurements (zero otherwise). They make early
	// stopping observable: a point that reached its target error count
	// with fewer bits carries a wider confidence interval.
	Bits   int `json:"bits"`
	Errors int `json:"errors"`
}

// Series is a named curve: one line of a figure.
type Series struct {
	// Label names the curve (e.g. "adjacent channel").
	Label string
	// XLabel and YLabel document the axes.
	XLabel string
	YLabel string
	// Points holds the sweep samples in X order.
	Points []Point
	// Cache reports the invariant-prefix stage cache's hit/miss/byte
	// statistics for the sweep run that produced the series (zero when the
	// sweep ran without a cache).
	Cache CacheStats
}

// Add appends a point, keeping the series sorted by X.
func (s *Series) Add(x, y float64) {
	s.AddPoint(Point{X: x, Y: y})
}

// AddPoint appends a fully annotated point, keeping the series sorted by X.
// Insertion is by binary search, so adding keeps whatever capacity Points
// already has and allocates nothing beyond slice growth; points sharing an X
// stay in insertion order.
func (s *Series) AddPoint(p Point) {
	i := sort.Search(len(s.Points), func(j int) bool { return s.Points[j].X > p.X })
	s.Points = append(s.Points, Point{})
	copy(s.Points[i+1:], s.Points[i:])
	s.Points[i] = p
}

// Min returns the point with the smallest Y (zero Point for an empty series).
func (s *Series) Min() Point {
	var best Point
	for i, p := range s.Points {
		if i == 0 || p.Y < best.Y {
			best = p
		}
	}
	return best
}

// YAt returns the Y value at the given X (exact match) and whether it exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		//lint:ignore floateq documented exact-match lookup of a previously stored sweep value
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is a collection of series sharing axes — one paper figure.
type Figure struct {
	// Title names the figure (e.g. "Figure 5: BER vs filter bandwidth").
	Title  string    `json:"title"`
	Series []*Series `json:"series"`
}

// String renders the figure as an aligned text table, one row per X value
// and one column per series, matching how the harness prints reproduced
// figures.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	// Collect the union of X values.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	fmt.Fprintf(&b, "%-14s", f.Series[0].XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-22s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14.6g", x)
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, "  %-22.6g", y)
			} else {
				fmt.Fprintf(&b, "  %-22s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
