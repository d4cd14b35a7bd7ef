package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wlansim/internal/measure"
)

// Golden batched waterfalls. The behavioral-front-end SNR waterfall with
// Batch > 1 is the only sweep that runs through RunBenchBatch, so its output
// is pinned bit for bit against values recorded from the strictly serial
// packet loop: each row sweeps 24 Mbit/s across the sync cliff at one and
// all sweep workers and compares every point's Float64bits of Y, CILo, CIHi
// and EVM RMS plus its bit and error counts, and the series' stage-cache
// counters. Batch widths 2, 5 and 8 and packet counts 1, 3 and 10 are
// covered; the TargetErrors rows stop lanes at different packets, and stop
// every lane within one packet of its target from the start.
//
// EVM is not part of a sweep point, so it is measured by RunBenchBatch over
// the same grid in groups of the row's Batch (a trailing group of one runs
// Bench.Run, which the batch differential tests pin equal).
//
// The rows with a sweep name pin the other single-series noise sweeps the
// same way: the behavioral waterfall at Batch 0 and 1, the ideal and co-sim
// waterfalls, and EVMvsSNR (Y is the EVM in percent). They record no EVM RMS
// column.
//
// Regenerate only after an intended physics change; the failure message
// prints the measured row.
type goldenBatchPoint struct {
	y, lo, hi, evm uint64
	bits, errors   int
}

type goldenBatchCache struct {
	hits, misses, peak, evictions int64
}

var sweepBatchGolden = []struct {
	name string
	// sweep selects the harness: "" the behavioral waterfall, "ideal" and
	// "cosim" the waterfall on that front end, "evm" EVMvsSNR.
	sweep        string
	snrs         []float64
	batch        int
	packets      int
	targetErrors int
	points       []goldenBatchPoint
	cache        goldenBatchCache
}{
	{name: "batch 2, 1 packet", snrs: []float64{0, 3, 6, 9, 12, 15, 18}, batch: 2, packets: 1,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fdc83c7c1592680, 0x3fe1be1c1f536cc0, 0x0, 320, 160},
			{0x3fe0000000000000, 0x3fdc83c7c1592680, 0x3fe1be1c1f536cc0, 0x0, 320, 160},
			{0x3fe0000000000000, 0x3fdc83c7c1592680, 0x3fe1be1c1f536cc0, 0x0, 320, 160},
			{0x0, 0x0, 0x3f884b3001ec6816, 0x3fdf5b0dc9acaa8b, 320, 0},
			{0x0, 0x0, 0x3f884b3001ec6816, 0x3fd0d928e7e8e9b2, 320, 0},
			{0x0, 0x0, 0x3f884b3001ec6816, 0x3fcbf9ee40e6ac9c, 320, 0},
			{0x0, 0x0, 0x3f884b3001ec6816, 0x3fc69ccad640ac71, 320, 0},
		},
		cache: goldenBatchCache{6, 1, 26240, 0},
	},
	{name: "batch 5, 3 packets", snrs: []float64{1, 4, 7, 10, 13, 16, 19, 22}, batch: 5, packets: 3,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 0x0, 960, 480},
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 0x0, 960, 480},
			{0x3fe0000000000000, 0x3fddfad3e5ec1028, 0x3fe102960d09f7ec, 0x0, 960, 480},
			{0x0, 0x0, 0x3f70532ca3b60106, 0x3fd4e24559454732, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 0x3fcfbf7b0c049cff, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 0x3fc8029483d9c7e4, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 0x3fc2820c6448ca5e, 960, 0},
			{0x0, 0x0, 0x3f70532ca3b60106, 0x3fbaddf4d076a081, 960, 0},
		},
		cache: goldenBatchCache{21, 3, 78720, 0},
	},
	{name: "batch 8, 10 packets", snrs: []float64{2, 5, 8, 11, 14, 17, 20, 23, 26}, batch: 8, packets: 10,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fdee4564cb76530, 0x3fe08dd4d9a44d68, 0x0, 3200, 1600},
			{0x3fe03ae147ae147b, 0x3fdf59fc352d69c0, 0x3fe0c8a04f569000, 0x3fed84692444291b, 3200, 1623},
			{0x3fb0e147ae147ae1, 0x3fad9e5a89ed6c3b, 0x3fb337996e62c7f3, 0x3fd87656e1f16619, 3200, 211},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fd248d6256de5c6, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fcead38ce5f811b, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fc6ef1805bb6f54, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fc07b021ff94fe5, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fb8718a94d6cc41, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fb2c153ca302ba9, 3200, 0},
		},
		cache: goldenBatchCache{80, 10, 262400, 0},
	},
	{name: "batch 8, lanes stop at different packets", snrs: []float64{0, 4, 6, 8, 10, 12, 16, 24}, batch: 8, packets: 10, targetErrors: 700,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fde6f14935fd622, 0x3fe0c875b65014ef, 0x0, 1600, 800},
			{0x3fe0000000000000, 0x3fde6f14935fd622, 0x3fe0c875b65014ef, 0x0, 1600, 800},
			{0x3fd9c44444444444, 0x3fd86063d1b65ecf, 0x3fdb2e841a11bbff, 0x3fe1235f26f2fd02, 1920, 773},
			{0x3fb0e147ae147ae1, 0x3fad9e5a89ed6c3b, 0x3fb337996e62c7f3, 0x3fd87656e1f16619, 3200, 211},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fd5a2d0deb0a492, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fd21a49fb37c161, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fc9609a807b7cbc, 3200, 0},
			{0x0, 0x0, 0x3f53a50a2e0b9b1d, 0x3fb7295bda52339a, 3200, 0},
		},
		cache: goldenBatchCache{56, 10, 262400, 0},
	},
	{name: "batch 5, every lane within one packet of target", snrs: []float64{0, 5, 10, 15, 20}, batch: 5, packets: 6, targetErrors: 300,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fdd8739e0f2ff1c, 0x3fe13c630f868072, 0x0, 640, 320},
			{0x3fe0000000000000, 0x3fdd8739e0f2ff1c, 0x3fe13c630f868072, 0x0, 640, 320},
			{0x0, 0x0, 0x3f605b84ea5d759a, 0x3fd4e38cff685a26, 1920, 0},
			{0x0, 0x0, 0x3f605b84ea5d759a, 0x3fcbc4116601642d, 1920, 0},
			{0x0, 0x0, 0x3f605b84ea5d759a, 0x3fc078ae7f939e1a, 1920, 0},
		},
		cache: goldenBatchCache{16, 6, 157440, 0},
	},
	{name: "behavioral, batch 0", snrs: []float64{3, 5, 6, 7, 8, 9, 12}, packets: 4,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fde3fe472825f6d, 0x3fe0e00dc6bed04a, 0x0, 1280, 640},
			{0x3fe0000000000000, 0x3fde3fe472825f6d, 0x3fe0e00dc6bed04a, 0x0, 1280, 640},
			{0x3fd6a66666666666, 0x3fd500f312fc95a3, 0x3fd85a2cafe6055f, 0x0, 1280, 453},
			{0x3fd9a66666666666, 0x3fd7f40a6faa5d8b, 0x3fdb627cc28cf731, 0x0, 1280, 513},
			{0x3f97333333333333, 0x3f90333c20eef197, 0x3fa08ffff93ce3da, 0x0, 1280, 29},
			{0x0, 0x0, 0x3f6883039176c5b6, 0x0, 1280, 0},
			{0x0, 0x0, 0x3f6883039176c5b6, 0x0, 1280, 0},
		},
		cache: goldenBatchCache{24, 4, 104960, 0},
	},
	{name: "behavioral, batch 1, target errors", snrs: []float64{0, 5, 6, 8, 15}, batch: 1, packets: 4, targetErrors: 300,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fdd8739e0f2ff1c, 0x3fe13c630f868072, 0x0, 640, 320},
			{0x3fe0000000000000, 0x3fdd8739e0f2ff1c, 0x3fe13c630f868072, 0x0, 640, 320},
			{0x3fd6a66666666666, 0x3fd500f312fc95a3, 0x3fd85a2cafe6055f, 0x0, 1280, 453},
			{0x3f97333333333333, 0x3f90333c20eef197, 0x3fa08ffff93ce3da, 0x0, 1280, 29},
			{0x0, 0x0, 0x3f6883039176c5b6, 0x0, 1280, 0},
		},
		cache: goldenBatchCache{12, 4, 104960, 0},
	},
	{name: "ideal waterfall", sweep: "ideal", snrs: []float64{0, 3, 6, 9, 12}, packets: 2,
		points: []goldenBatchPoint{
			{0x3fe0000000000000, 0x3fdd8739e0f2ff1c, 0x3fe13c630f868072, 0x0, 640, 320},
			{0x3fdfe66666666666, 0x3fdd6dc82ab324c5, 0x3fe12fa96b1ee4eb, 0x0, 640, 319},
			{0x3fca333333333333, 0x3fc66e13994d77a3, 0x3fce6bcbca72dbe7, 0x0, 640, 131},
			{0x0, 0x0, 0x3f78704b4a91011a, 0x0, 640, 0},
			{0x0, 0x0, 0x3f78704b4a91011a, 0x0, 640, 0},
		},
		cache: goldenBatchCache{8, 2, 52480, 0},
	},
	{name: "co-sim waterfall", sweep: "cosim", snrs: []float64{4, 10, 16}, packets: 2,
		points: []goldenBatchPoint{
			{0x3fdf000000000000, 0x3fdc890f8a7e5ba0, 0x3fe0bcff3f757b3f, 0x0, 640, 310},
			{0x0, 0x0, 0x3f78704b4a91011a, 0x0, 640, 0},
			{0x0, 0x0, 0x3f78704b4a91011a, 0x0, 640, 0},
		},
		cache: goldenBatchCache{4, 2, 52480, 0},
	},
	{name: "EVM vs SNR", sweep: "evm", snrs: []float64{10, 20, 30}, packets: 2,
		points: []goldenBatchPoint{
			{0x40408f4e1e755ba4, 0x0, 0x0, 0x0, 0, 0},
			{0x4028d4a3f724754c, 0x0, 0x0, 0x0, 0, 0},
			{0x400fb863a986686c, 0x0, 0x0, 0x0, 0, 0},
		},
		cache: goldenBatchCache{4, 2, 52480, 0},
	},
}

func TestSweepBatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps too slow for -short")
	}
	for _, row := range sweepBatchGolden {
		base := batchBase()
		base.FrontEnd = FrontEndBehavioral
		base.Packets = row.packets
		base.TargetErrors = row.targetErrors
		base.Batch = row.batch
		evms := make([]uint64, len(row.snrs))
		if row.sweep == "" && row.batch > 1 {
			evms = goldenBatchEVMs(t, base, row.snrs, row.batch)
		}
		for _, workers := range []int{1, 0} {
			cfg := base
			cfg.Workers = workers
			series := goldenSweepSeries(t, row.sweep, cfg, row.snrs)
			got := make([]goldenBatchPoint, len(series.Points))
			for i, p := range series.Points {
				got[i] = goldenBatchPoint{
					y: math.Float64bits(p.Y), lo: math.Float64bits(p.CILo), hi: math.Float64bits(p.CIHi),
					evm: evms[i], bits: p.Bits, errors: p.Errors,
				}
			}
			cache := goldenBatchCacheOf(series)
			if fmt.Sprint(got) != fmt.Sprint(row.points) || cache != row.cache {
				var b strings.Builder
				for _, p := range got {
					fmt.Fprintf(&b, "\t\t\t{%#x, %#x, %#x, %#x, %d, %d},\n", p.y, p.lo, p.hi, p.evm, p.bits, p.errors)
				}
				fmt.Fprintf(&b, "\t\tcache: goldenBatchCache{%d, %d, %d, %d},\n", cache.hits, cache.misses, cache.peak, cache.evictions)
				t.Errorf("%s, %d workers: points or cache counters differ from golden; measured:\n%s", row.name, workers, b.String())
			}
		}
	}
}

// goldenSweepSeries runs a sweepBatchGolden row's sweep over snrs at
// 24 Mbit/s.
func goldenSweepSeries(t *testing.T, sweep string, cfg Config, snrs []float64) *measure.Series {
	t.Helper()
	if sweep == "evm" {
		series, err := EVMvsSNR(cfg, snrs)
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	fe := map[string]FrontEndKind{"": FrontEndBehavioral, "ideal": FrontEndIdeal, "cosim": FrontEndCoSim}[sweep]
	fig, err := WaterfallBERvsSNROnFrontEnd(cfg, fe, []int{24}, snrs)
	if err != nil {
		t.Fatal(err)
	}
	return fig.Series[0]
}

// goldenBatchEVMs returns the Float64bits of each point's EVM RMS, measured
// by RunBenchBatch over consecutive groups of batch points.
func goldenBatchEVMs(t *testing.T, base Config, snrs []float64, batch int) []uint64 {
	t.Helper()
	cfgs := batchSweepConfigs(base, 24, snrs)
	out := make([]uint64, 0, len(cfgs))
	for i := 0; i < len(cfgs); i += batch {
		group := cfgs[i:min(i+batch, len(cfgs))]
		var results []*Result
		if len(group) == 1 {
			bench, err := NewBench(group[0])
			if err != nil {
				t.Fatal(err)
			}
			res, err := bench.Run()
			if err != nil {
				t.Fatal(err)
			}
			results = []*Result{res}
		} else {
			var err error
			if results, err = RunBenchBatch(group); err != nil {
				t.Fatal(err)
			}
		}
		for _, res := range results {
			out = append(out, math.Float64bits(res.EVM.RMS))
		}
	}
	return out
}

// goldenBatchCacheOf reads the series' cache counters.
func goldenBatchCacheOf(series *measure.Series) goldenBatchCache {
	c := series.Cache
	return goldenBatchCache{hits: c.Hits, misses: c.Misses, peak: c.PeakBytes, evictions: c.Evictions}
}
