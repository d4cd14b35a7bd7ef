package main

import (
	"bytes"
	"math"
	"math/rand"

	"wlansim/internal/core"
	"wlansim/internal/measure"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
)

// Workload labels folded into the run seed, so the workloads of one seed
// draw unrelated inputs.
const (
	labelFig5 uint64 = iota + 1
	labelSNR
	labelTable2
	labelService
)

// deriveSeed derives a nonzero library seed from the run seed (a zero seed
// would select the library's defaults).
func deriveSeed(runSeed int64, labels ...uint64) int64 {
	if s := seed.Derive(runSeed, labels...); s != 0 {
		return s
	}
	return 1
}

// inputSets is how many input sets a sweep workload's seed generates. Its
// operations cycle through them, so one run's median mixes eight noise and
// payload realizations instead of resting on one, whose share of lost
// packets (and with it the decode work) varies from seed to seed.
const inputSets = 8

// sweepSet is one input set of a sweep workload: the library call, an
// alternate library path that must give the same series, and the
// stage-by-stage rebuild.
type sweepSet struct {
	run, ref func() (*measure.Series, error)
	rebuild  func(tr *tracer, want *measure.Series) (tracedOp, error)
	last     *measure.Series
}

// sweepBench is a simulation workload whose operation is one sweep call.
type sweepBench struct {
	sets    []*sweepSet
	packets int
	path    []string
	cache   measure.CacheStats
}

func (s *sweepBench) op(i int) (opResult, error) {
	set := s.sets[i%len(s.sets)]
	series, err := set.run()
	if err != nil {
		return opResult{}, err
	}
	set.last, s.cache = series, series.Cache
	return opResult{primary: true, packets: s.packets, key: i % len(s.sets), digest: digestPoints(series.Points)}, nil
}

func (s *sweepBench) reference() ([]uint64, uint64, error) {
	keys := make([]uint64, len(s.sets))
	for k, set := range s.sets {
		series, err := set.ref()
		if err != nil {
			return nil, 0, err
		}
		keys[k] = digestPoints(series.Points)
	}
	return keys, foldDigests(keys), nil
}

func (s *sweepBench) warmUp() error {
	_, err := s.op(0)
	return err
}

// traced rebuilds operation i and checks it against the library's last
// series for the same input set (computed now if the untraced half never
// reached that set).
func (s *sweepBench) traced(i int, tr *tracer) (tracedOp, error) {
	set := s.sets[i%len(s.sets)]
	if set.last == nil {
		if _, err := s.op(i); err != nil {
			return tracedOp{}, err
		}
	}
	return set.rebuild(tr, set.last)
}

func (s *sweepBench) onPath() []string               { return s.path }
func (s *sweepBench) cacheStats() measure.CacheStats { return s.cache }
func (s *sweepBench) names() (string, string)        { return "sweep", "s" }

// sweepGolden folds the primary-path digests of a sweep workload's sets.
func sweepGolden(mk func(int64) (simBench, error), runSeed int64) (uint64, error) {
	b, err := mk(runSeed)
	if err != nil {
		return 0, err
	}
	sets := b.(*sweepBench).sets
	keys := make([]uint64, len(sets))
	for k, set := range sets {
		series, err := set.run()
		if err != nil {
			return 0, err
		}
		keys[k] = digestPoints(series.Points)
	}
	return foldDigests(keys), nil
}

// fig5Inputs generates input set k of the Figure 5 workload: the paper's
// 48 Mbit/s scenario with the +16 dB adjacent channel (3x oversampled
// composite, behavioral front end) swept over 6 filter edges from 6 to
// 16 MHz, with 2 sweep workers and a fresh stage cache per call. The seed
// sets the packet seeds and jitters each edge by up to 50 kHz; larger jitter
// would move the share of packets lost to a narrow filter, and with it the
// cost of a sweep.
func fig5Inputs(runSeed int64, k int) (core.Config, []float64) {
	rng := rand.New(rand.NewSource(deriveSeed(runSeed, labelFig5, 0, uint64(k))))
	base := core.Figure5Config()
	base.Seed = deriveSeed(runSeed, labelFig5, 1, uint64(k))
	base.Workers = 2
	edges := make([]float64, 6)
	for e := range edges {
		edges[e] = 6e6 + 2e6*float64(e) + (rng.Float64()-0.5)*1e5
	}
	return base, edges
}

func newFig5(runSeed int64) (simBench, error) {
	b := &sweepBench{path: []string{"phy.tx", "channel.compose", "rf.to_filter", "rf.from_filter",
		"rxdsp.receive", "phy.demap", "viterbi.decode"}}
	for k := 0; k < inputSets; k++ {
		base, edges := fig5Inputs(runSeed, k)
		b.packets = len(edges) * base.Packets
		b.sets = append(b.sets, &sweepSet{
			run: func() (*measure.Series, error) { return core.FilterBandwidthSweep(base, edges) },
			// Reference: the same sweep uncached and serial.
			ref: func() (*measure.Series, error) {
				c := base
				c.DisableStageCache = true
				c.Workers = 1
				return core.FilterBandwidthSweep(c, edges)
			},
			rebuild: func(tr *tracer, want *measure.Series) (tracedOp, error) {
				return rebuildFig5(base, edges, tr, want)
			},
		})
	}
	return b, nil
}

func fig5Golden(runSeed int64) (uint64, error) { return sweepGolden(newFig5, runSeed) }

// fig5PointConfig mirrors core.FilterBandwidthSweep's per-point config.
func fig5PointConfig(base core.Config, edge float64) core.Config {
	cfg := base
	cfg.Seed = seed.ForPoint(base.Seed, edge)
	cfg.ContentSeed = base.Seed
	cfg.SweptStage = core.StageFrontEnd
	cfg.SweptFrontEndFilterOnly = true
	prev := base.TuneRF
	cfg.TuneRF = func(rc *rf.ReceiverConfig) {
		if prev != nil {
			prev(rc)
		}
		rc.ChannelFilterEdgeHz = edge
	}
	return cfg
}

// rebuildFig5 replays one filter sweep stage by stage, with the sweep's
// cache structure: each packet's TX, channel and pre-filter front end run
// once (the first point), every point runs the filter onward.
func rebuildFig5(base core.Config, edges []float64, tr *tracer, want *measure.Series) (tracedOp, error) {
	type entry struct {
		ref  []byte
		wave []complex128
	}
	prefix := make([]entry, base.Packets)
	var res tracedOp
	var scratch []complex128
	for i, edge := range edges {
		cfg := fig5PointConfig(base, edge)
		p, err := newPipe(cfg)
		if err != nil {
			return res, err
		}
		fe, err := behavioralFrontEnd(cfg, p.os)
		if err != nil {
			return res, err
		}
		var ctr measure.BERCounter
		for k := 0; k < cfg.Packets; k++ {
			root := tr.root("packet")
			if prefix[k].wave == nil {
				ref, frame, err := p.transmit(tr, k)
				if err != nil {
					return res, err
				}
				wave, err := p.compose(tr, k, frame)
				if err != nil {
					return res, err
				}
				fe.Reset()
				s := tr.begin("rf.to_filter")
				wave = fe.ProcessToFilter(wave)
				tr.end(s)
				prefix[k] = entry{ref, wave}
			}
			scratch = append(scratch[:0], prefix[k].wave...)
			fe.Reset()
			s := tr.begin("rf.from_filter")
			bb := fe.ProcessFromFilter(scratch)
			tr.end(s)
			_, psdu, fate, err := p.receiveAndDecode(tr, bb)
			if err != nil {
				return res, err
			}
			res.add(fate)
			account(&ctr, prefix[k].ref, psdu, fate)
			tr.end(root)
		}
		pt := ctr.Point()
		pt.X = edge / 1e8
		if want == nil || i >= len(want.Points) || !samePoint(pt, want.Points[i]) {
			res.mismatches++
		}
	}
	return res, nil
}

// snrInputs generates input set k of the SNR-waterfall workload: 24 Mbit/s,
// 100-byte packets through the behavioral front end, 8 SNR points 2 dB apart
// from 2 dB (the lowest points lose sync) to 16 dB, batched 8 wide on 1 sweep
// worker. The seed sets the packet and noise seeds and jitters the grid by
// up to 0.1 dB.
func snrInputs(runSeed int64, k int) (core.Config, []float64) {
	rng := rand.New(rand.NewSource(deriveSeed(runSeed, labelSNR, 0, uint64(k))))
	base := core.DefaultConfig()
	base.Packets = 10
	base.Seed = deriveSeed(runSeed, labelSNR, 1, uint64(k))
	base.Workers = 1
	base.Batch = 8
	start := 2 + 0.1*rng.Float64()
	snrs := make([]float64, 8)
	for p := range snrs {
		snrs[p] = start + 2*float64(p)
	}
	return base, snrs
}

func snrSweep(base core.Config, snrs []float64) (*measure.Series, error) {
	fig, err := core.WaterfallBERvsSNROnFrontEnd(base, core.FrontEndBehavioral, []int{base.RateMbps}, snrs)
	if err != nil {
		return nil, err
	}
	return fig.Series[0], nil
}

func newSNR(runSeed int64) (simBench, error) {
	b := &sweepBench{path: []string{"phy.tx", "channel.compose", "channel.noise", "rf.batch",
		"rxdsp.receive", "rxdsp.decode_batch"}}
	for k := 0; k < inputSets; k++ {
		base, snrs := snrInputs(runSeed, k)
		b.packets = len(snrs) * base.Packets
		b.sets = append(b.sets, &sweepSet{
			run: func() (*measure.Series, error) { return snrSweep(base, snrs) },
			// Reference: the same sweep on the sequential (unbatched) path.
			ref: func() (*measure.Series, error) {
				c := base
				c.Batch = 1
				return snrSweep(c, snrs)
			},
			rebuild: func(tr *tracer, want *measure.Series) (tracedOp, error) {
				return rebuildSNR(base, snrs, tr, want)
			},
		})
	}
	return b, nil
}

func snrGolden(runSeed int64) (uint64, error) { return sweepGolden(newSNR, runSeed) }

// rebuildSNR replays one batched waterfall sweep (core.RunBenchBatch over
// all points as lanes): per packet, the shared TX and channel prefix, each
// lane's own antenna noise, one rf.BatchReceiver pass, per-lane sync and
// equalization, then one rxdsp.DecodeDeferredBatch. After the batched decode
// each delivered lane is decoded again sequentially — off the critical path —
// to split demapping from Viterbi time and to check the lane's PSDU.
func rebuildSNR(base core.Config, snrs []float64, tr *tracer, want *measure.Series) (tracedOp, error) {
	var res tracedOp
	rateSeed := seed.ForSeries(base.Seed, uint64(base.RateMbps))
	L := len(snrs)
	cfgs := make([]core.Config, L)
	pipes := make([]*pipe, L)
	rngs := make([]*randutil.Rand, L)
	rxs := make([]*rxdsp.Receiver, L)
	for l, snr := range snrs {
		cfg := base
		cfg.Seed = seed.ForPoint(rateSeed, snr)
		cfg.ContentSeed = rateSeed
		cfg.SweptStage = core.StageNoise
		cfg.FrontEnd = core.FrontEndBehavioral
		cfg.Interferers = nil
		cfg.ChannelSNRdB = &snrs[l]
		p, err := newPipe(cfg)
		if err != nil {
			return res, err
		}
		cfgs[l], pipes[l], rxs[l] = cfg, p, p.rx
		rngs[l] = randutil.NewRandDirect(seed.ForStage(stageRoot(cfg, core.StageNoise), int(core.StageNoise), 0))
	}
	os := pipes[0].os
	fe, err := behavioralFrontEnd(cfgs[0], os)
	if err != nil {
		return res, err
	}
	brx := rf.NewBatchReceiver(fe)
	waves := make([][]complex128, L)
	pkts := make([]*rxdsp.PacketResult, L)
	fates := make([]packetFate, L)
	ctrs := make([]measure.BERCounter, L)
	for k := 0; k < base.Packets; k++ {
		root := tr.root("packet")
		ref, frame, err := pipes[0].transmit(tr, k)
		if err != nil {
			return res, err
		}
		wave, err := pipes[0].compose(tr, k, frame)
		if err != nil {
			return res, err
		}
		for l := range waves {
			waves[l] = append(waves[l][:0], wave...)
			addNoise(tr, cfgs[l], os, waves[l], rngs[l])
		}
		s := tr.begin("rf.batch")
		bbs := brx.Process(waves)
		tr.end(s)
		for l := range bbs {
			pkts[l], fates[l], err = pipes[l].receive(tr, bbs[l])
			if err != nil {
				return res, err
			}
		}
		s = tr.begin("rxdsp.decode_batch")
		derrs := rxdsp.DecodeDeferredBatch(rxs, pkts)
		tr.end(s)
		for l := range pkts {
			var psdu []byte
			if fates[l] == delivered && derrs[l] != nil {
				fates[l] = lostAfterSync
			}
			if fates[l] == delivered {
				psdu = pkts[l].PSDU
				twin, err := pipes[l].dec.decode(tr, pkts[l])
				if err != nil || !bytes.Equal(twin, psdu) {
					res.mismatches++
				}
			}
			res.add(fates[l])
			account(&ctrs[l], ref, psdu, fates[l])
		}
		tr.end(root)
	}
	for l, snr := range snrs {
		pt := ctrs[l].Point()
		pt.X = snr
		if want == nil || l >= len(want.Points) || !samePoint(pt, want.Points[l]) {
			res.mismatches++
		}
	}
	return res, nil
}

// table2Packets is the number of distinct packets (seeds) per front end.
const table2Packets = 4

// table2Bench is the Table 2 workload: one-packet core.Bench runs of the
// 24 Mbit/s, 100-byte scenario, alternating the behavioral and the co-sim
// front end on the same configuration. No cache, no batching.
type table2Bench struct {
	cfgs    []core.Config // pairs: behavioral, then co-sim on the same seed
	benches []*core.Bench
	digests []uint64 // of each Bench's last result
	pipes   []*pipe
	fes     []rf.FrontEnd
}

// resultDigest folds a one-packet result: its BER point and its EVM, which
// depends on every sample of the received waveform even when the packet
// decodes without errors.
func resultDigest(pt measure.Point, evm measure.EVMResult) uint64 {
	return digestPoints([]measure.Point{pt, {X: evm.RMS, Bits: evm.Symbols}})
}

func table2Inputs(runSeed int64) []core.Config {
	var cfgs []core.Config
	for k := 0; k < table2Packets; k++ {
		s := deriveSeed(runSeed, labelTable2, uint64(k))
		for _, fe := range []core.FrontEndKind{core.FrontEndBehavioral, core.FrontEndCoSim} {
			c := core.DefaultConfig()
			c.Packets = 1
			c.Seed = s
			c.FrontEnd = fe
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func newTable2(runSeed int64) (simBench, error) {
	t := &table2Bench{cfgs: table2Inputs(runSeed)}
	t.digests = make([]uint64, len(t.cfgs))
	t.pipes = make([]*pipe, len(t.cfgs))
	t.fes = make([]rf.FrontEnd, len(t.cfgs))
	for _, c := range t.cfgs {
		b, err := core.NewBench(c)
		if err != nil {
			return nil, err
		}
		t.benches = append(t.benches, b)
	}
	return t, nil
}

// warmUp builds every front end and FFT plan before timing: one run per
// Bench.
func (t *table2Bench) warmUp() error {
	for i := range t.benches {
		if _, err := t.op(i); err != nil {
			return err
		}
	}
	return nil
}

func (t *table2Bench) op(i int) (opResult, error) {
	k := i % len(t.benches)
	res, err := t.benches[k].Run()
	if err != nil {
		return opResult{}, err
	}
	d := resultDigest(res.Counter.Point(), res.EVM)
	t.digests[k] = d
	return opResult{
		primary: t.cfgs[k].FrontEnd == core.FrontEndCoSim,
		packets: 1,
		key:     k,
		digest:  d,
	}, nil
}

// reference reruns every configuration on a freshly built Bench.
func (t *table2Bench) reference() ([]uint64, uint64, error) {
	keys, err := table2Digests(t.cfgs)
	if err != nil {
		return nil, 0, err
	}
	return keys, foldDigests(keys), nil
}

// table2Digests runs each configuration on a freshly built Bench.
func table2Digests(cfgs []core.Config) ([]uint64, error) {
	keys := make([]uint64, len(cfgs))
	for k, c := range cfgs {
		b, err := core.NewBench(c)
		if err != nil {
			return nil, err
		}
		res, err := b.Run()
		if err != nil {
			return nil, err
		}
		keys[k] = resultDigest(res.Counter.Point(), res.EVM)
	}
	return keys, nil
}

func table2Golden(runSeed int64) (uint64, error) {
	keys, err := table2Digests(table2Inputs(runSeed))
	if err != nil {
		return 0, err
	}
	return foldDigests(keys), nil
}

// traced rebuilds packet i's Bench run stage by stage. Spans are grouped by
// front end, which splits the Table 2 ratio by layer.
func (t *table2Bench) traced(i int, tr *tracer) (tracedOp, error) {
	var res tracedOp
	k := i % len(t.cfgs)
	cfg := t.cfgs[k]
	if t.pipes[k] == nil {
		p, err := newPipe(cfg)
		if err != nil {
			return res, err
		}
		var fe rf.FrontEnd
		if cfg.FrontEnd == core.FrontEndCoSim {
			fe, err = coSimFrontEnd(cfg, p.os)
		} else {
			fe, err = behavioralFrontEnd(cfg, p.os)
		}
		if err != nil {
			return res, err
		}
		t.pipes[k], t.fes[k] = p, fe
	}
	p, fe := t.pipes[k], t.fes[k]
	tr.group = frontEndGroup(cfg.FrontEnd)
	defer func() { tr.group = "" }()
	root := tr.root("packet")
	ref, frame, err := p.transmit(tr, 0)
	if err != nil {
		return res, err
	}
	wave, err := p.compose(tr, 0, frame)
	if err != nil {
		return res, err
	}
	fe.Reset()
	var bb []complex128
	if rx, ok := fe.(*rf.Receiver); ok {
		s := tr.begin("rf.to_filter")
		wave = rx.ProcessToFilter(wave)
		tr.end(s)
		s = tr.begin("rf.from_filter")
		bb = rx.ProcessFromFilter(wave)
		tr.end(s)
	} else {
		s := tr.begin("analog.frontend")
		bb = fe.Process(wave)
		tr.end(s)
	}
	pkt, psdu, fate, err := p.receiveAndDecode(tr, bb)
	if err != nil {
		return res, err
	}
	tr.end(root)
	res.add(fate)
	var ctr measure.BERCounter
	account(&ctr, ref, psdu, fate)
	// EVM as Bench accounts it: accumulated over delivered packets, against
	// the configured modulation.
	var evm measure.EVMResult
	if fate == delivered {
		if ev, err := measure.EVM(pkt.EqualizedCarriers, p.mode.Modulation); err == nil && ev.Symbols > 0 {
			acc := ev.RMS * ev.RMS * float64(ev.Symbols)
			evm = measure.EVMResult{RMS: math.Sqrt(acc / float64(ev.Symbols)), Symbols: ev.Symbols}
		}
	}
	if resultDigest(ctr.Point(), evm) != t.digests[k] {
		res.mismatches++
	}
	return res, nil
}

func frontEndGroup(k core.FrontEndKind) string {
	if k == core.FrontEndCoSim {
		return "co-sim"
	}
	return "behavioral"
}

func (t *table2Bench) onPath() []string {
	return []string{"phy.tx", "channel.compose", "rf.to_filter", "rf.from_filter", "analog.frontend",
		"rxdsp.receive", "phy.demap", "viterbi.decode"}
}
func (t *table2Bench) cacheStats() measure.CacheStats { return measure.CacheStats{} }
func (t *table2Bench) names() (string, string)        { return "packet", "ms" }
