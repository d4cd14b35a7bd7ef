package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"wlansim/internal/measure"
	"wlansim/internal/rf"
	"wlansim/internal/sim"
)

// lnaTunes are the two LNA-nonlinearity sweeps' point tunes, as
// CompressionPointSweep and IP3Sweep apply them.
var lnaTunes = []func(*rf.AmplifierConfig, float64){
	func(lna *rf.AmplifierConfig, cp float64) {
		lna.Model, lna.UseCompression, lna.CompressionDBm = rf.Cubic, true, cp
	},
	func(lna *rf.AmplifierConfig, ip3 float64) {
		lna.Model, lna.UseCompression, lna.IIP3DBm = rf.Cubic, false, ip3
	},
}

// TestLNABatchMatchesSequential is the LNA-lane sweep differential test:
// every lane's Result of RunBenchBatch — bit and error counts, lost packets
// and the Float64bits of the mean EVM — must equal Bench.Run on the same
// point configuration. Lanes alternate between compression-point and IIP3
// points, so one group mixes both tunes. Covered: groups of one to five
// lanes, with and without the adjacent channel (oversampling 3 and 1), with
// the stage cache and without it, TargetErrors stopping lanes at different
// packets, and a lane with fewer packets than its group-mates.
func TestLNABatchMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep points too slow for -short")
	}
	// Per adjacency, compression points and IIP3s that span error-free to
	// broken lanes.
	valuesBy := map[bool][]float64{true: {-30, -14, -26, -4, -24}, false: {-55, -38, -50, -28, -48}}
	type variant struct {
		name         string
		cache        func() *sim.StageCache
		targetErrors int
		shortLane    bool
	}
	variants := []variant{
		{name: "cached", cache: func() *sim.StageCache { return sim.NewStageCache(0) }},
		{name: "uncached", cache: func() *sim.StageCache { return nil }},
		{name: "target errors", cache: func() *sim.StageCache { return sim.NewStageCache(0) }, targetErrors: 150},
		{name: "short lane", cache: func() *sim.StageCache { return sim.NewStageCache(0) }, shortLane: true},
	}
	for _, adjacent := range []bool{true, false} {
		for _, v := range variants {
			values := valuesBy[adjacent]
			for L := 1; L <= len(values); L++ {
				base := Figure6Config()
				base.Packets = 3
				base.PSDULen = 60
				base.TargetErrors = v.targetErrors
				if adjacent {
					base.Interferers = []InterfererSpec{AdjacentChannelSpec(base.WantedPowerDBm)}
				}
				cache := v.cache()
				cfgs := make([]Config, L)
				for l := range cfgs {
					cfgs[l] = lnaPointConfig(base, values[l], cache, lnaTunes[l%2])
					if v.shortLane && l == 1 {
						cfgs[l].Packets = 1
					}
				}
				got, err := RunBenchBatch(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for l, cfg := range cfgs {
					cfg.Cache = v.cache()
					bench, err := NewBench(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := bench.Run()
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("adjacent=%v %s L=%d lane %d (%g)", adjacent, v.name, L, l, values[l])
					if !reflect.DeepEqual(got[l].Counter, want.Counter) {
						t.Errorf("%s: lane counter %+v != sequential %+v", where, got[l].Counter, want.Counter)
					}
					if math.Float64bits(got[l].EVM.RMS) != math.Float64bits(want.EVM.RMS) ||
						got[l].EVM.Symbols != want.EVM.Symbols {
						t.Errorf("%s: lane EVM %v != sequential %v", where, got[l].EVM, want.EVM)
					}
					if got[l].OversampleFactor != want.OversampleFactor {
						t.Errorf("%s: lane oversampling %d != sequential %d", where, got[l].OversampleFactor, want.OversampleFactor)
					}
				}
			}
		}
	}
}

// TestLNASweepsWithoutAdjacentDropBaseInterferers pins what "without the
// adjacent channel" means for both LNA sweeps: no interferer at all, even
// when the base scenario carries one. Each sweep over a base with the
// adjacent channel and withAdjacent off must equal the sweep over the base
// without it, and differ from the sweep with the adjacent channel on.
func TestLNASweepsWithoutAdjacentDropBaseInterferers(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps too slow for -short")
	}
	clean := Figure6Config()
	clean.Packets = 1
	clean.PSDULen = 40
	loaded := clean
	loaded.Interferers = []InterfererSpec{AdjacentChannelSpec(clean.WantedPowerDBm)}
	sweeps := map[string]func(Config, []float64, bool) (*measure.Series, error){
		"CompressionPointSweep": CompressionPointSweep,
		"IP3Sweep":              IP3Sweep,
	}
	values := []float64{-28, -22}
	for name, sweep := range sweeps {
		want, err := sweep(clean, values, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sweep(loaded, values, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: without the adjacent channel, a base interferer changed the series:\ngot:  %+v\nwant: %+v", name, got, want)
		}
		adj, err := sweep(loaded, values, true)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(adj.Points, want.Points) {
			t.Errorf("%s: the adjacent channel left the series unchanged; the test lost its point", name)
		}
	}
}
