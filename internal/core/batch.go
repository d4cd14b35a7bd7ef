package core

import (
	"fmt"
	"reflect"
	"slices"

	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// This file is the system-level end of the lane pipeline: RunBenchBatch
// takes the configurations of a group of sweep points and pushes them all
// through the behavioral front end in lock-step, one packet at a time, as
// lanes of one rf.BatchReceiver. Lane l's Result is bit-identical to running
// its Bench sequentially: the invariant prefix is the same cached waveform
// either way, each lane's antenna noise comes from the lane's own restarted
// stream, the front end is exact by the lane differential tests, and the
// DSP receiver runs per lane unchanged.

// batchableConfigs validates that cfgs form one lane group: points over the
// behavioral front end that agree on every field that shapes the pipeline.
// Seed, ChannelSNRdB's value, TuneRF, Packets, TargetErrors and the cache
// wiring may differ per lane; everything else must match lane 0.
// rf.NewLaneReceiver checks that the tuned receivers differ only in their
// LNA nonlinearity and channel-select filter.
func batchableConfigs(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: lane group of no points")
	}
	shape0 := laneShape(cfgs[0])
	for i, c := range cfgs {
		if c.FrontEnd != FrontEndBehavioral {
			return fmt.Errorf("core: lane %d front end %v is not behavioral", i, c.FrontEnd)
		}
		if !reflect.DeepEqual(laneShape(c), shape0) {
			return fmt.Errorf("core: lane %d differs from lane 0 beyond Seed, ChannelSNRdB, TuneRF, Packets, TargetErrors and the cache", i)
		}
	}
	return nil
}

// laneShape is c with the fields lanes of one group may differ in cleared:
// two lanes fit one group when their shapes are deeply equal. A channel
// SNR, if set, is kept as set but not its value. TuneCoSim and OnSweepPoint
// play no part in a behavioral run and are functions, which compare equal
// only when nil, so they are cleared too.
func laneShape(c Config) Config {
	if c.ChannelSNRdB != nil {
		c.ChannelSNRdB = new(float64)
	}
	c.Seed, c.TuneRF, c.Packets, c.TargetErrors = 0, nil, 0, 0
	c.Cache, c.CacheBytes, c.DisableStageCache = nil, 0, false
	c.TuneCoSim, c.OnSweepPoint = nil, nil
	return c
}

// laneGroups is the number of lane groups a sweep over n points runs as on
// workers sweep workers with at most width lanes per group: at least one
// group per worker, so grouping never lowers the sweep's parallelism, and
// beyond that as few groups as width allows.
func laneGroups(n, workers, width int) int {
	return max(workers, (n+width-1)/width)
}

// RunBenchBatch runs a group of sweep points as lanes in lock-step and
// returns one Result per lane, each bit-identical to NewBench(cfgs[l]).Run().
// A group of one is an ordinary group.
//
// Each packet runs in two halves. The front half serves every active lane's
// invariant prefix through the shared stage cache and runs the lanes through
// one rf.BatchReceiver, sharing the front end's internal noise/LO draws,
// which are identical across lanes by the fixed per-block reseeding
// contract. Where the prefix ends follows from the lanes' configuration:
//
//   - Filter-only front-end sweep points (SweptFrontEndFilterOnly) share the
//     pre-filter waveform, so every lane reads the one cached entry, without a
//     copy, through its own filter (the receiver's pre-filter entry).
//   - All other lanes start from the antenna and run the whole front end,
//     each through its own LNA nonlinearity (the antenna entry). Lanes
//     whose points carry a channel SNR add their own antenna noise, from
//     their own per-point stream, to their own copy of the prefix; the
//     others read the one cached entry without a copy.
//
// The back half synchronizes and equalizes each lane on its own DSP
// receiver (reset per packet, so lanes cannot interact), completes every
// lane's Viterbi pass in one lock-step DecodeDeferredBatch, and accounts
// the packet. Lanes stop per lane, on TargetErrors or their own Packets:
// finished lanes drop out of subsequent packets exactly as their
// sequential runs stop.
//
// The front half runs one packet ahead on a helper goroutine (batchFront),
// overlapping packet p+1's RF lanes with packet p's decode, without
// speculation: it starts packet p+1 before packet p is accounted only when
// no lane can reach TargetErrors in packet p. Every lane's noise draws,
// cache lookups and AGC history are therefore the serial loop's.
func RunBenchBatch(cfgs []Config) ([]*Result, error) {
	results, _, err := runLanes(cfgs)
	return results, err
}

// runLanes is RunBenchBatch, also reporting how many prefix lookups returned
// a different cache entry than an earlier lane's lookup of the same key in
// the same packet (see batchFront.unshared).
func runLanes(cfgs []Config) ([]*Result, int, error) {
	if err := batchableConfigs(cfgs); err != nil {
		return nil, 0, err
	}
	L := len(cfgs)
	benches := make([]*Bench, L)
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, 0, err
		}
		benches[i] = b
	}

	b0 := benches[0]
	os := b0.oversample()
	mode, err := phy.ModeByRate(b0.cfg.RateMbps)
	if err != nil {
		return nil, 0, err
	}
	rcfgs := make([]rf.ReceiverConfig, L)
	for l, b := range benches {
		rcfgs[l] = b.receiverConfig(os)
	}
	rx, err := rf.NewReceiver(rcfgs[0])
	if err != nil {
		return nil, 0, err
	}
	lanes, err := rf.NewLaneReceiver(rx, rcfgs)
	if err != nil {
		return nil, 0, err
	}
	if b0.preFilterPrefix() {
		// The shared pre-filter waveform has passed lane 0's LNA.
		for l := range rcfgs {
			if rcfgs[l].LNA != rcfgs[0].LNA {
				return nil, 0, fmt.Errorf("core: filter-only lane %d's LNA differs from lane 0's", l)
			}
		}
	}

	results := make([]*Result, L)
	evms := make([]evmAccum, L)
	for l, b := range benches {
		b.tx = &phy.Transmitter{Mode: mode}
		if b.suffixNoise() {
			// Each lane's point-variant noise is its own sequential per-run
			// stream, exactly as in Run.
			s := seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0)
			b.noiseRNG = randutil.NewRandDirect(s)
			b.noiseMarked = true
		}
		results[l] = &Result{OversampleFactor: os, FrontEnd: b.cfg.FrontEnd}
		// Pre-build the lane's DSP receiver opted into the deferred decode:
		// the packet loop below completes all lanes' Viterbi passes in
		// lock-step (ignored for hard decisions, where the lane decodes
		// eagerly and the batch completion skips it).
		b.rx = rxdsp.NewReceiver()
		b.rx.HardDecisions = b.cfg.HardDecisions
		b.rx.DisableCSI = b.cfg.DisableCSI
		b.rx.ReuseBuffers = true
		b.rx.DeferDataDecode = true
	}

	front := newBatchFront(benches, os, rx, lanes)
	go front.run()
	defer front.stop()

	pkts := make([]*rxdsp.PacketResult, 0, L)
	rxErrs := make([]error, 0, L)
	laneRxs := make([]*rxdsp.Receiver, 0, L)
	for s := range front.filled {
		pkts, rxErrs, laneRxs = pkts[:0], rxErrs[:0], laneRxs[:0]
		for k, l := range s.active {
			pkt, err := benches[l].receiveDSP(s.basebands[k], mode)
			pkts = append(pkts, pkt)
			rxErrs = append(rxErrs, err)
			laneRxs = append(laneRxs, benches[l].rx)
		}
		// One lock-step Viterbi pass over every lane that synchronized; a
		// lane's decode error is exactly the error its sequential Receive
		// would have returned, so it folds into the lane outcome below.
		derrs := rxdsp.DecodeDeferredBatch(laneRxs, pkts)
		for k, l := range s.active {
			rxErr := rxErrs[k]
			if rxErr == nil {
				rxErr = derrs[k]
			}
			// The front half derives the stop from the error counts below.
			benches[l].accountPacket(pkts[k], rxErr, s.refs[k], mode, results[l], &evms[l])
		}
		for l, res := range results {
			s.errs[l] = res.Counter.Errors
		}
		front.free <- s
	}
	if front.err != nil {
		return nil, 0, front.err
	}
	for l := range results {
		evms[l].finish(results[l])
	}
	return results, front.unshared, nil
}

// batchSlot carries one packet of a batch group between the two halves of
// RunBenchBatch's packet loop. The front half fills active, refs and
// basebands; the back half reads them, accounts the packet, records errs
// and hands the slot back.
type batchSlot struct {
	active    []int          // lanes that run this packet
	refs      [][]byte       // reference payload bits, per active lane
	basebands [][]complex128 // front-end output, per active lane (slot-owned)
	errs      []int          // every lane's error count once the packet is accounted
}

// batchSlots is the number of packets in flight between the two halves:
// one being accounted, one being filled.
const batchSlots = 2

// batchFront is the front half of RunBenchBatch's packet loop, run one
// packet ahead on a helper goroutine: prefix lookup, antenna noise and the
// rf.BatchReceiver pass, into two slots that alternate between the halves.
// Front-half state (the stage cache lookups, each bench's noise stream and
// antenna scratch, the lane receiver) is touched only by the helper;
// back-half state (each bench's DSP receiver, the results) only by the
// caller; slots change hands over the channels.
type batchFront struct {
	benches   []*Bench
	os        int
	packets   int               // the most packets any lane runs
	preFilter bool              // lanes start from the shared pre-filter waveform
	prx       *rf.Receiver      // computes pre-filter prefixes on cache misses
	tx        *phy.Transmitter  // synthesizes the wanted frame on pre-filter misses
	rx        *rf.BatchReceiver // the lanes
	waves     [][]complex128    // the packet's lane inputs, per active lane
	slots     [batchSlots]batchSlot

	// The prefix lookups of the packet being filled, and how many of them
	// returned a different entry than an earlier lane with the same key in
	// the same packet. Lanes share one prefix, so unshared stays zero
	// unless the cache evicted the entry between two lanes' lookups (each
	// lane then reads its own, equal copy).
	keys     []sim.CacheKey
	entries  []*stageEntry
	unshared int

	filled chan *batchSlot // filled packets, in packet order; closed when the helper ends
	free   chan *batchSlot // accounted packets' slots, in packet order
	quit   chan struct{}   // closed by stop: the back half has returned
	done   chan struct{}   // closed when the helper has returned
	err    error           // why the helper ended early; read after filled is closed

	// Helper-only view of the back half: every lane's error count as of the
	// last accounted packet, and how many packets that is.
	errs      []int
	accounted int
}

func newBatchFront(benches []*Bench, os int, prx *rf.Receiver, rx *rf.BatchReceiver) *batchFront {
	f := &batchFront{
		benches:   benches,
		os:        os,
		preFilter: benches[0].preFilterPrefix(),
		prx:       prx,
		tx:        benches[0].tx,
		rx:        rx,
		filled:    make(chan *batchSlot),
		free:      make(chan *batchSlot, batchSlots), // room for every slot: the back half never blocks
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		errs:      make([]int, len(benches)),
	}
	for _, b := range benches {
		f.packets = max(f.packets, b.cfg.Packets)
	}
	for i := range f.slots {
		f.slots[i].errs = make([]int, len(benches))
	}
	return f
}

// stop ends the helper, wherever it is waiting, and returns once it has.
func (f *batchFront) stop() {
	close(f.quit)
	<-f.done
}

// run fills packet after packet until every packet has run, every lane has
// stopped, the front half fails, or stop is called. Packet p reuses the slot
// of packet p-2, so it waits for that packet's accounting. It also waits
// for packet p-1's unless no lane can reach TargetErrors there: a packet
// adds at most len(refBits) errors to a lane, so the helper never runs a
// packet for a lane the serial loop would have stopped.
func (f *batchFront) run() {
	defer close(f.done)
	defer close(f.filled)
	maxAdd := 0 // the most errors the previous packet can add to a lane
	for p := 0; p < f.packets; p++ {
		if !f.await(p - 1) {
			return
		}
		if p > 0 && f.mayStop(maxAdd) && !f.await(p) {
			return
		}
		s := &f.slots[p%batchSlots]
		s.active, s.refs, f.waves = s.active[:0], s.refs[:0], f.waves[:0]
		f.keys, f.entries = f.keys[:0], f.entries[:0]
		maxAdd = 0
		for l, b := range f.benches {
			if p >= b.cfg.Packets || b.targetReached(f.errs[l]) {
				continue
			}
			refBits, wave, err := f.prefix(b, p)
			if err != nil {
				f.err = err
				return
			}
			if len(f.waves) > 0 && len(wave) != len(f.waves[0]) {
				f.err = fmt.Errorf("core: lane %d packet %d prefix length %d != %d", l, p, len(wave), len(f.waves[0]))
				return
			}
			s.active = append(s.active, l)
			s.refs = append(s.refs, refBits)
			f.waves = append(f.waves, wave)
			maxAdd = max(maxAdd, len(refBits))
		}
		if len(s.active) == 0 {
			return
		}
		if f.preFilter {
			s.basebands = f.rx.ProcessFromFilterInto(s.basebands, s.active, f.waves)
		} else {
			s.basebands = f.rx.ProcessLanesInto(s.basebands, s.active, f.waves)
		}
		select {
		case f.filled <- s:
		case <-f.quit:
			return
		}
	}
}

// prefix serves lane bench b's input of packet p, which the lane receiver
// only reads: the shared pre-filter waveform for filter lanes, the shared
// antenna waveform for lanes without antenna noise of their own, otherwise
// the lane's own copy of the antenna waveform with its noise added.
func (f *batchFront) prefix(b *Bench, p int) ([]byte, []complex128, error) {
	var e *stageEntry
	var err error
	switch {
	case f.preFilter:
		e, err = f.entry(b, b.preFilterKey(p, f.os), func(pb *Bench) (*stageEntry, error) {
			return pb.preFilterEntry(f.prx, p, f.os)
		})
	case b.cfg.SweptStage >= StageNoise:
		e, err = f.entry(b, b.antennaKey(p, f.os), func(pb *Bench) (*stageEntry, error) {
			return pb.antennaEntry(p, f.os)
		})
	default:
		// TX or channel swept: the lane composes its own antenna waveform.
		refBits, wave, _, err := b.packetPrefix(p, f.os)
		if err == nil && b.suffixNoise() {
			b.addNoise(wave, f.os, b.noiseRNG)
		}
		return refBits, wave, err
	}
	if err != nil {
		return nil, nil, err
	}
	if !b.suffixNoise() {
		return e.refBits, e.wave, nil
	}
	b.scratch = append(b.scratch[:0], e.wave...)
	b.addNoise(b.scratch, f.os, b.noiseRNG)
	return e.refBits, b.scratch, nil
}

// entry serves lane bench b's cached prefix under key, which get looks up
// on a bench of b's configuration. With a cache every lane looks up its own
// key, so hits and misses count per point exactly as in sequential runs;
// without one, a lane whose key an earlier lane already computed this
// packet reuses that entry instead of recomputing the identical prefix. A
// miss computes on a throwaway bench, so no lane holds the TX and channel
// scratch (composer, FFT plans, interferer waveforms) for the rest of the
// group.
func (f *batchFront) entry(b *Bench, key sim.CacheKey, get func(pb *Bench) (*stageEntry, error)) (*stageEntry, error) {
	first := slices.Index(f.keys, key)
	if first >= 0 && b.cfg.Cache == nil {
		return f.entries[first], nil
	}
	e, err := get(&Bench{cfg: b.cfg, tx: f.tx, keyContent: b.keyContent})
	if err != nil {
		return nil, err
	}
	if first >= 0 && e != f.entries[first] {
		f.unshared++
	}
	f.keys = append(f.keys, key)
	f.entries = append(f.entries, e)
	return e, nil
}

// await blocks until n packets are accounted, folding each handed-back
// slot's error counts into f.errs. It reports false when stop was called.
func (f *batchFront) await(n int) bool {
	for f.accounted < n {
		select {
		case s := <-f.free:
			copy(f.errs, s.errs)
			f.accounted++
		case <-f.quit:
			return false
		}
	}
	return true
}

// mayStop reports whether a lane still running can reach TargetErrors in a
// packet that adds at most maxAdd errors to it.
func (f *batchFront) mayStop(maxAdd int) bool {
	for l, b := range f.benches {
		if !b.targetReached(f.errs[l]) && b.targetReached(f.errs[l]+maxAdd) {
			return true
		}
	}
	return false
}

// runBERPointBatch is the batched analogue of runBERPoint: one fully
// configured scenario per lane in, one measurement point per lane out.
func runBERPointBatch(cfgs []Config) ([]measure.Point, error) {
	results, err := RunBenchBatch(cfgs)
	if err != nil {
		return nil, err
	}
	pts := make([]measure.Point, len(results))
	for i, res := range results {
		pts[i] = res.Counter.Point()
	}
	return pts, nil
}
