package core

import (
	"fmt"

	"wlansim/internal/phy"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/sim"
)

// This file is the filter-sweep end of the lane pipeline. The points of a
// filter-only front-end sweep (FilterBandwidthSweep) share every stage up to
// the channel-select filter — TX, channel and the front end's ProcessToFilter,
// all served from the stage cache — and differ only in the filter. A group of
// points therefore runs as lanes of one rf.FilterLanes: per packet, each
// lane looks up its own prefix key (so cache accounting stays per point),
// the shared pre-filter waveform is streamed read-only through every lane's
// filter, AGC, ADC and decimator, and one DSP receiver decodes the lanes one
// after another. Lane l's Result is bit-identical to running its Bench
// sequentially: the prefix is the same cached waveform either way, the front
// end is exact by the filter-lane differential test, and the DSP receiver's
// state is reset per packet.

// filterLaneGroups is the number of lane groups a filter sweep over n edges
// runs as on workers sweep workers: at least one group per worker, so
// grouping never lowers the sweep's parallelism, and beyond that at most
// four lanes per group.
func filterLaneGroups(n, workers int) int {
	return max(workers, (n+3)/4)
}

// filterLaneConfigs validates that cfgs form one filter-lane group: points
// of a filter-only front-end sweep over the behavioral front end that agree
// on everything the shared DSP receiver and the lane loop depend on. TuneRF
// differs per lane (rf.NewFilterLanes checks that the tuned receivers differ
// only in the filter), as may Seed, Packets, TargetErrors and the cache.
func filterLaneConfigs(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: filter-lane group of no points")
	}
	c0 := cfgs[0]
	for i, c := range cfgs {
		if c.SweptStage != StageFrontEnd || !c.SweptFrontEndFilterOnly || c.FrontEnd != FrontEndBehavioral {
			return fmt.Errorf("core: filter lane %d is not a filter-only behavioral front-end sweep point", i)
		}
		if c.RateMbps != c0.RateMbps || c.PSDULen != c0.PSDULen ||
			c.HardDecisions != c0.HardDecisions || c.DisableCSI != c0.DisableCSI {
			return fmt.Errorf("core: filter lane %d differs from lane 0 in rate, payload or DSP receiver options", i)
		}
	}
	return nil
}

// filterLaneRun is one group of filter-sweep points run as lanes.
type filterLaneRun struct {
	rx *rf.Receiver     // computes pre-filter prefixes on cache misses
	tx *phy.Transmitter // synthesizes the wanted frame on cache misses
	// unshared counts lane lookups that returned a different entry than an
	// earlier lane with the same key in the same packet. Lanes share one
	// prefix, so this stays zero unless the cache evicted the entry between
	// two lanes' lookups (each lane then reads its own, equal copy).
	unshared int
}

// run runs the filter-sweep points cfgs as lanes of one group and returns
// one Result per lane, each bit-identical to NewBench(cfgs[l]).Run().
func (r *filterLaneRun) run(cfgs []Config) ([]*Result, error) {
	if err := filterLaneConfigs(cfgs); err != nil {
		return nil, err
	}
	L := len(cfgs)
	benches := make([]*Bench, L)
	for l := range cfgs {
		b, err := NewBench(cfgs[l])
		if err != nil {
			return nil, err
		}
		benches[l] = b
	}
	b0 := benches[0]
	os := b0.oversample()
	mode, err := phy.ModeByRate(b0.cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	rcfgs := make([]rf.ReceiverConfig, L)
	for l, b := range benches {
		if b.oversample() != os {
			return nil, fmt.Errorf("core: filter lane %d oversamples %dx, lane 0 %dx", l, b.oversample(), os)
		}
		rcfgs[l] = b.receiverConfig(os)
	}
	// One receiver computes the pre-filter prefix on cache misses and lends
	// the lanes its AGC and ADC; one transmitter and one DSP receiver serve
	// every lane.
	if r.rx, err = rf.NewReceiver(rcfgs[0]); err != nil {
		return nil, err
	}
	lanes, err := rf.NewFilterLanes(r.rx, rcfgs)
	if err != nil {
		return nil, err
	}
	r.tx = &phy.Transmitter{Mode: mode}
	drx := rxdsp.NewReceiver()
	drx.HardDecisions = b0.cfg.HardDecisions
	drx.DisableCSI = b0.cfg.DisableCSI
	drx.ReuseBuffers = true

	results := make([]*Result, L)
	evms := make([]evmAccum, L)
	stopped := make([]bool, L)
	for l, b := range benches {
		b.rx = drx
		results[l] = &Result{OversampleFactor: os, FrontEnd: b.cfg.FrontEnd}
	}

	active := make([]int, 0, L)
	src := make([][]complex128, 0, L)
	refs := make([][]byte, 0, L)
	keys := make([]sim.CacheKey, 0, L)
	entries := make([]*stageEntry, 0, L)
	for p := 0; ; p++ {
		active, src, refs = active[:0], src[:0], refs[:0]
		keys, entries = keys[:0], entries[:0]
		for l, b := range benches {
			if stopped[l] || p >= b.cfg.Packets {
				continue
			}
			key := b.preFilterKey(p, os)
			e, err := r.entry(b, p, os, key, keys, entries)
			if err != nil {
				return nil, err
			}
			if len(src) > 0 && len(e.wave) != len(src[0]) {
				return nil, fmt.Errorf("core: filter lane %d packet %d prefix length %d != %d",
					l, p, len(e.wave), len(src[0]))
			}
			keys = append(keys, key)
			entries = append(entries, e)
			active = append(active, l)
			src = append(src, e.wave)
			refs = append(refs, e.refBits)
		}
		if len(active) == 0 {
			break
		}
		basebands := lanes.Process(active, src)
		for k, l := range active {
			if benches[l].receivePacket(basebands[k], refs[k], mode, results[l], &evms[l]) {
				stopped[l] = true
			}
		}
	}
	for l := range results {
		evms[l].finish(results[l])
	}
	return results, nil
}

// entry serves lane bench b's pre-filter prefix of packet p, whose cache key
// is key. keys and entries hold the lanes already served this packet. With
// a cache every lane looks up its own key, so hits and misses count per
// point exactly as in sequential runs; without one, a lane whose key an
// earlier lane already computed reuses that entry instead of recomputing the
// identical prefix. A miss computes on a throwaway bench, so no lane holds
// the TX and channel scratch (composer, FFT plans) for the rest of the
// group: only the first sweep points to reach a packet ever compute it.
func (r *filterLaneRun) entry(b *Bench, p, os int, key sim.CacheKey, keys []sim.CacheKey, entries []*stageEntry) (*stageEntry, error) {
	first := -1
	for k := range keys {
		if keys[k] == key {
			first = k
			break
		}
	}
	if first >= 0 && b.cfg.Cache == nil {
		return entries[first], nil
	}
	pb := &Bench{cfg: b.cfg, tx: r.tx, keyContent: b.keyContent}
	e, err := pb.preFilterEntry(r.rx, p, os)
	if err != nil {
		return nil, err
	}
	if first >= 0 && e != entries[first] {
		r.unshared++
	}
	return e, nil
}
