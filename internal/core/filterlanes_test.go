package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"wlansim/internal/rf"
	"wlansim/internal/sim"
)

// TestFilterBatchMatchesSequential is the filter-lane sweep differential
// test: every lane's Result of RunBenchBatch — bit and error counts, lost
// packets and the Float64bits of the mean EVM — must equal Bench.Run on the
// same point configuration. Covered: groups of one to five lanes, with the
// stage cache, without it, and under a budget too small to keep a prefix;
// TargetErrors stopping lanes at different packets; and lanes with fewer
// packets than their group-mates. With the default cache every packet's
// prefix is computed at most once, whatever the number of lanes.
func TestFilterBatchMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep points too slow for -short")
	}
	allEdges := []float64{5e6, 9.5e6, 6.5e6, 17e6, 12e6}
	type variant struct {
		name         string
		cache        func() *sim.StageCache
		targetErrors int
		shortLane    bool
	}
	variants := []variant{
		{name: "cached", cache: func() *sim.StageCache { return sim.NewStageCache(0) }},
		{name: "uncached", cache: func() *sim.StageCache { return nil }},
		{name: "evicting", cache: func() *sim.StageCache { return sim.NewStageCache(1) }},
		{name: "target errors", cache: func() *sim.StageCache { return sim.NewStageCache(0) }, targetErrors: 100},
		{name: "short lane", cache: func() *sim.StageCache { return sim.NewStageCache(0) }, shortLane: true},
	}
	for _, v := range variants {
		for L := 1; L <= len(allEdges); L++ {
			base := Figure5Config()
			base.Packets = 4
			base.PSDULen = 60
			base.TargetErrors = v.targetErrors
			cache := v.cache()
			cfgs := make([]Config, L)
			for l := range cfgs {
				cfgs[l] = filterPointConfig(base, allEdges[l], cache)
				if v.shortLane && l == 1 {
					cfgs[l].Packets = 2
				}
			}
			got, err := RunBenchBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if v.name == "cached" || v.name == "target errors" || v.name == "short lane" {
				if m := cache.Stats().Misses; m > int64(base.Packets) {
					t.Errorf("%s L=%d: %d prefix misses over %d packets; lanes must share each packet's entry",
						v.name, L, m, base.Packets)
				}
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
				where := fmt.Sprintf("%s L=%d lane %d (edge %g)", v.name, L, l, allEdges[l])
				if !reflect.DeepEqual(got[l].Counter, want.Counter) {
					t.Errorf("%s: lane counter %+v != sequential %+v", where, got[l].Counter, want.Counter)
				}
				if math.Float64bits(got[l].EVM.RMS) != math.Float64bits(want.EVM.RMS) ||
					got[l].EVM.Symbols != want.EVM.Symbols {
					t.Errorf("%s: lane EVM %v != sequential %v", where, got[l].EVM, want.EVM)
				}
				if got[l].OversampleFactor != want.OversampleFactor || got[l].FrontEnd != want.FrontEnd {
					t.Errorf("%s: lane result header %d/%v != sequential %d/%v", where,
						got[l].OversampleFactor, got[l].FrontEnd, want.OversampleFactor, want.FrontEnd)
				}
			}
		}
	}
}

// TestFilterLaneGroups pins the derived grouping: at least one group per
// two workers and at most width lanes per group beyond that — the Figure 5
// workload (6 edges, 2 workers, width 8) runs as one group of 6, the batched
// SNR workload (8 points, 1 worker, Batch 8) as one group of 8 and a
// service Figure 6 job (at most 4 points, 1 worker) as one group.
func TestFilterLaneGroups(t *testing.T) {
	for _, c := range []struct{ n, workers, width, want int }{
		{6, 2, 8, 1}, {8, 1, 8, 1}, {4, 1, 8, 1}, {6, 3, 8, 2}, {6, 4, 8, 2}, {16, 2, 8, 2}, {17, 2, 8, 3},
		{6, 2, 4, 2}, {1, 2, 4, 1}, {4, 1, 4, 1}, {5, 1, 4, 2}, {12, 2, 4, 3}, {13, 2, 4, 4}, {3, 8, 4, 4},
		{7, 1, 2, 4}, {9, 2, 8, 2}, {4, 8, 4, 4},
	} {
		if got := laneGroups(c.n, c.workers, c.width); got != c.want {
			t.Errorf("laneGroups(%d, %d, %d) = %d, want %d", c.n, c.workers, c.width, got, c.want)
		}
	}
}

// TestSweepLaneWidth pins the one lane-width rule of every sweep: groups of
// one off the behavioral front end, whatever Batch says; on it Batch caps
// the width when set and laneWidth (8, the lane AGC's widest kernel)
// applies otherwise.
func TestSweepLaneWidth(t *testing.T) {
	for _, c := range []struct {
		fe          FrontEndKind
		batch, want int
	}{
		{FrontEndIdeal, 0, 1}, {FrontEndIdeal, 8, 1}, {FrontEndCoSim, 4, 1}, {FrontEndBlackBox, 0, 1},
		{FrontEndBehavioral, 0, 8}, {FrontEndBehavioral, 1, 1}, {FrontEndBehavioral, 8, 8},
	} {
		cfg := DefaultConfig()
		cfg.FrontEnd, cfg.Batch = c.fe, c.batch
		if got := sweepLaneWidth(cfg); got != c.want {
			t.Errorf("%v front end, Batch %d: width %d, want %d", c.fe, c.batch, got, c.want)
		}
	}
}

// TestFilterLanesRejectMixedGroups pins the group contract of the filter
// lanes: only points of a filter-only behavioral front-end sweep that share
// the DSP receiver's settings may run as lanes of one RunBenchBatch call.
func TestFilterLanesRejectMixedGroups(t *testing.T) {
	base := Figure5Config()
	base.Packets = 1
	base.PSDULen = 40
	good := func() []Config {
		return []Config{filterPointConfig(base, 6e6, nil), filterPointConfig(base, 9e6, nil)}
	}
	cases := map[string]func([]Config){
		"not filter-only": func(c []Config) { c[1].SweptFrontEndFilterOnly = false },
		"other rate":      func(c []Config) { c[1].RateMbps = 24 },
		"ideal front end": func(c []Config) { c[0].FrontEnd = FrontEndIdeal },
		"AGC tuned":       func(c []Config) { c[1].TuneRF = func(rc *rf.ReceiverConfig) { rc.AGC.TargetDBm = -5 } },
		"LNA tuned":       func(c []Config) { c[1].TuneRF = func(rc *rf.ReceiverConfig) { rc.LNA.CompressionDBm = -20 } },
		"no interferer":   func(c []Config) { c[1].Interferers = nil },
	}
	for name, mutate := range cases {
		cfgs := good()
		mutate(cfgs)
		if _, err := RunBenchBatch(cfgs); err == nil {
			t.Errorf("%s: mixed group accepted", name)
		}
	}
	if _, err := RunBenchBatch(nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := RunBenchBatch(good()); err != nil {
		t.Errorf("filter-sweep group rejected: %v", err)
	}
}
