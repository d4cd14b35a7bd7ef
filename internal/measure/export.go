package measure

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV renders the figure as CSV: the first column is the union of X
// values, one column per series; missing points are empty cells.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"x"}
	if len(f.Series) > 0 && f.Series[0].XLabel != "" {
		header[0] = f.Series[0].XLabel
	}
	for _, s := range f.Series {
		label := s.Label
		if label == "" {
			label = fmt.Sprintf("series%d", len(header))
		}
		header = append(header, label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
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
	for _, x := range sorted {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, strconv.FormatFloat(y, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
