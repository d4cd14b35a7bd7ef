package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wlansim/internal/measure"
)

// Golden Figure 6 and IP3 sweeps. CompressionPointSweep and IP3Sweep are the
// paper's RF-nonlinearity sweeps, so their output is pinned bit for bit:
// each row runs Figure6Config over a grid of LNA compression points or
// IIP3s, at one sweep worker and at all CPUs, and compares every point's
// Float64bits of Y, CILo and CIHi plus its bit and error counts, and the
// series' stage-cache counters, against values recorded from the
// point-by-point sweep (one Bench.Run per point). The grids hold one, two,
// four and six points, so a grid fills one lane group, crosses the lane
// width, or spreads over several groups; one row stops early on
// TargetErrors, so lanes of one group finish at different packets.
//
// Regenerate only after an intended physics change; the failure message
// prints the measured row.
type lnaGoldenRow struct {
	name         string
	sweep        string // "cp" or "ip3"
	adjacent     bool
	values       []float64
	packets      int
	targetErrors int
	points       []goldenPoint
	cache        measure.CacheStats
}

var lnaSweepGolden = []lnaGoldenRow{
	{name: "cp adjacent 1 point", sweep: "cp", adjacent: true, values: []float64{-24}, packets: 2,
		points: []goldenPoint{
			{0x3fb7777777777777, 0x3fb33381ed578fd1, 0x3fbc90bce27b0fb3, 960, 88},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 0, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "cp adjacent 2 points", sweep: "cp", adjacent: true, values: []float64{-27, -15}, packets: 2,
		points: []goldenPoint{
			{0x3fde99999999999a, 0x3fdc96597034aaba, 0x3fe04fda8f00ca90, 960, 459},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 2, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "cp adjacent 4 points", sweep: "cp", adjacent: true, values: []float64{-30, -26, -22, -10}, packets: 2,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 960, 480},
			{0x3fd9111111111111, 0x3fd71f343cfa1cce, 0x3fdb1113d8a4d644, 960, 376},
			{0x3f6999999999999a, 0x3f516bf762b55588, 0x3f82bbd4db67c437, 960, 3},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 6, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "cp adjacent 6 points", sweep: "cp", adjacent: true, values: []float64{-32, -28, -25, -23, -18, -5}, packets: 2,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 960, 480},
			{0x3fdf666666666666, 0x3fdd61ee32feb2b5, 0x3fe0b60c04f9fd78, 960, 471},
			{0x3fd0555555555555, 0x3fcd442a970b10ae, 0x3fd2288d969066bf, 960, 245},
			{0x3f8999999999999a, 0x3f7d58d09a4e6301, 0x3f963e11ee20c44d, 960, 12},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 10, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "cp 1 point", sweep: "cp", values: []float64{-49}, packets: 2,
		points: []goldenPoint{
			{0x3fa3bbbbbbbbbbbc, 0x3f9cc38a59c160db, 0x3faaf7d33dbdf96e, 960, 37},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 0, Misses: 2, BytesInUse: 57920, PeakBytes: 57920, Evictions: 0},
	},
	{name: "cp 2 points", sweep: "cp", values: []float64{-55, -40}, packets: 2,
		points: []goldenPoint{
			{0x3fd9555555555555, 0x3fd76243e5b32564, 0x3fdb56016a2a9cf2, 960, 380},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 2, Misses: 2, BytesInUse: 57920, PeakBytes: 57920, Evictions: 0},
	},
	{name: "cp 4 points", sweep: "cp", values: []float64{-58, -50, -46, -30}, packets: 2,
		points: []goldenPoint{
			{0x3fd8cccccccccccd, 0x3fd6dc2e6b3945c4, 0x3fdacc1c7026de0a, 960, 372},
			{0x3fb6aaaaaaaaaaab, 0x3fb279e287f2bcb0, 0x3fbbb26499237508, 960, 85},
			{0x3f83333333333333, 0x3f743be9f74814ca, 0x3f92256cdbf0a0a8, 960, 9},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 6, Misses: 2, BytesInUse: 57920, PeakBytes: 57920, Evictions: 0},
	},
	{name: "cp 6 points", sweep: "cp", values: []float64{-60, -52, -49, -46, -43, -20}, packets: 2,
		points: []goldenPoint{
			{0x3fdc333333333333, 0x3fda358cb722b0ca, 0x3fde389acade45aa, 960, 423},
			{0x3fd9555555555555, 0x3fd76243e5b32564, 0x3fdb56016a2a9cf2, 960, 380},
			{0x3fa3bbbbbbbbbbbc, 0x3f9cc38a59c160db, 0x3faaf7d33dbdf96e, 960, 37},
			{0x3f83333333333333, 0x3f743be9f74814ca, 0x3f92256cdbf0a0a8, 960, 9},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 10, Misses: 2, BytesInUse: 57920, PeakBytes: 57920, Evictions: 0},
	},
	{name: "ip3 adjacent 1 point", sweep: "ip3", adjacent: true, values: []float64{-16}, packets: 2,
		points: []goldenPoint{
			{0x3fdb99999999999a, 0x3fd99dcf43a4c298, 0x3fdd9e5e7b4ee182, 960, 414},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 0, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "ip3 adjacent 2 points", sweep: "ip3", adjacent: true, values: []float64{-20, -8}, packets: 2,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 960, 480},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 2, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "ip3 adjacent 4 points", sweep: "ip3", adjacent: true, values: []float64{-24, -16, -12, 0}, packets: 2,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 960, 480},
			{0x3fdb99999999999a, 0x3fd99dcf43a4c298, 0x3fdd9e5e7b4ee182, 960, 414},
			{0x3f6999999999999a, 0x3f516bf762b55588, 0x3f82bbd4db67c437, 960, 3},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 6, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "ip3 adjacent 6 points", sweep: "ip3", adjacent: true, values: []float64{-22, -18, -15, -12, -6, 5}, packets: 2,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 960, 480},
			{0x3fdebbbbbbbbbbbc, 0x3fdcb841d4dc8c06, 0x3fe060e5ab3c8dbb, 960, 461},
			{0x3fc399999999999a, 0x3fc0dc92f54af36c, 0x3fc6b13aa8db3eb4, 960, 147},
			{0x3f6999999999999a, 0x3f516bf762b55588, 0x3f82bbd4db67c437, 960, 3},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 960, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 10, Misses: 2, BytesInUse: 176544, PeakBytes: 176544, Evictions: 0},
	},
	{name: "cp adjacent 6 points, target errors", sweep: "cp", adjacent: true,
		values: []float64{-32, -27, -25, -24, -22, -10}, packets: 6, targetErrors: 200,
		points: []goldenPoint{
			{0x3fe0000000000000, 0x3fdd260fa5be17e4, 0x3fe16cf82d20f40e, 480, 240},
			{0x3fe0000000000000, 0x3fdd260fa5be17e4, 0x3fe16cf82d20f40e, 480, 240},
			{0x3fd0555555555555, 0x3fcd442a970b10ae, 0x3fd2288d969066bf, 960, 245},
			{0x3fbfe4b17e4b17e5, 0x3fbca9ecfeb3402c, 0x3fc1b70c3a6ec732, 2400, 299},
			{0x3f61111111111111, 0x3f4f4c5f6d3af306, 0x3f729678381ae643, 2880, 6},
			{0x0, 0x3c00000000000000, 0x3f55d313df6ede28, 2880, 0},
		},
		cache: measure.CacheStats{Enabled: true, Hits: 15, Misses: 6, BytesInUse: 529632, PeakBytes: 529632, Evictions: 0},
	},
}

func TestLNASweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps too slow for -short")
	}
	for _, row := range lnaSweepGolden {
		for _, workers := range []int{1, 0} {
			base := Figure6Config()
			base.Packets = row.packets
			base.PSDULen = 60
			base.TargetErrors = row.targetErrors
			base.Workers = workers
			var series *measure.Series
			var err error
			if row.sweep == "ip3" {
				series, err = IP3Sweep(base, row.values, row.adjacent)
			} else {
				series, err = CompressionPointSweep(base, row.values, row.adjacent)
			}
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
			if fmt.Sprint(got) != fmt.Sprint(row.points) || series.Cache != row.cache {
				var b strings.Builder
				for _, p := range got {
					fmt.Fprintf(&b, "\t\t\t{%#x, %#x, %#x, %d, %d},\n", p.y, p.lo, p.hi, p.bits, p.errors)
				}
				c := series.Cache
				fmt.Fprintf(&b, "\t\tcache: measure.CacheStats{Enabled: %v, Hits: %d, Misses: %d, BytesInUse: %d, PeakBytes: %d, Evictions: %d},\n",
					c.Enabled, c.Hits, c.Misses, c.BytesInUse, c.PeakBytes, c.Evictions)
				t.Errorf("%s, workers %d: series differs from golden; measured:\n%s", row.name, workers, b.String())
			}
		}
	}
}
