package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Golden Figure 5 sweeps. FilterBandwidthSweep is the paper's main
// RF-parameter sweep, so its output is pinned bit for bit: each row runs
// Figure5Config over a set of passband edges at one and two sweep workers
// and compares every point's Float64bits of Y, CILo and CIHi plus its bit
// and error counts against values recorded from the point-by-point sweep
// (one Bench.Run per edge). The rows cover one to seven edges, so every
// grouping of edges into filter lanes is exercised, and one row stops early
// on TargetErrors, so lanes of one group finish at different packets.
//
// Regenerate only after an intended physics change; the failure message
// prints the measured points of the row.
type goldenPoint struct {
	y, lo, hi    uint64
	bits, errors int
}

var filterSweepGolden = []struct {
	name         string
	edges        []float64
	packets      int
	targetErrors int
	points       []goldenPoint
}{
	{name: "1 edge", edges: []float64{9.5e6}, packets: 3,
		points: []goldenPoint{
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
		}},
	{name: "2 edges", edges: []float64{6e6, 14e6}, packets: 3,
		points: []goldenPoint{
			{0x3fb4444444444444, 0x3fb1ab9d5eb80925, 0x3fb73510f1f51617, 2400, 190},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
		}},
	{name: "5 edges", edges: []float64{5e6, 7.5e6, 9.5e6, 12e6, 16e6}, packets: 3,
		points: []goldenPoint{
			{0x3fcc000000000000, 0x3fc9f1020045e69c, 0x3fce2c728b7a4936, 2400, 525},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x3fdfd0369d0369d0, 0x3fde88d0a411f1bc, 0x3fe08be1d7aaa19d, 2400, 1193},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
		}},
	{name: "6 edges", edges: []float64{6e6, 8e6, 10e6, 12e6, 14e6, 16e6}, packets: 3,
		points: []goldenPoint{
			{0x3fb4444444444444, 0x3fb1ab9d5eb80925, 0x3fb73510f1f51617, 2400, 190},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x3fdfd0369d0369d0, 0x3fde88d0a411f1bc, 0x3fe08be1d7aaa19d, 2400, 1193},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
		}},
	{name: "7 edges", edges: []float64{5e6, 6.5e6, 8e6, 9.5e6, 11e6, 13.5e6, 17e6}, packets: 3,
		points: []goldenPoint{
			{0x3fcc000000000000, 0x3fc9f1020045e69c, 0x3fce2c728b7a4936, 2400, 525},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x0, 0x0, 0x3f5a2eb51c9c49e4, 2400, 0},
			{0x3fd9a06d3a06d3a0, 0x3fd8621aa09608a8, 0x3fdae3f6c82dbe94, 2400, 961},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
			{0x3fe0000000000000, 0x3fdeb8850dcd1a3d, 0x3fe0a3bd791972e1, 2400, 1200},
		}},
	{name: "6 edges, target errors", edges: []float64{5e6, 6e6, 7e6, 9.5e6, 14e6, 17e6},
		packets: 6, targetErrors: 150,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddc9b11b31f234, 0x3fe11b27726706e6, 800, 400},
			{0x3fb4444444444444, 0x3fb1ab9d5eb80925, 0x3fb73510f1f51617, 2400, 190},
			{0x0, 0x0, 0x3f4a34113fe6f38c, 4800, 0},
			{0x0, 0x0, 0x3f4a34113fe6f38c, 4800, 0},
			{0x3fe0000000000000, 0x3fddc9b11b31f234, 0x3fe11b27726706e6, 800, 400},
			{0x3fe0000000000000, 0x3fddc9b11b31f234, 0x3fe11b27726706e6, 800, 400},
		}},
}

func TestFilterSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps too slow for -short")
	}
	for _, row := range filterSweepGolden {
		for _, workers := range []int{1, 2} {
			base := Figure5Config()
			base.Packets = row.packets
			base.TargetErrors = row.targetErrors
			base.Workers = workers
			series, err := FilterBandwidthSweep(base, row.edges)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]goldenPoint, len(series.Points))
			for i, p := range series.Points {
				got[i] = goldenPoint{
					y: math.Float64bits(p.Y), lo: math.Float64bits(p.CILo), hi: math.Float64bits(p.CIHi),
					bits: p.Bits, errors: p.Errors,
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(row.points) {
				var b strings.Builder
				for _, p := range got {
					fmt.Fprintf(&b, "\t\t{%#x, %#x, %#x, %d, %d},\n", p.y, p.lo, p.hi, p.bits, p.errors)
				}
				t.Errorf("%s, %d workers: points differ from golden; measured:\n%s", row.name, workers, b.String())
			}
		}
	}
}
