package core

import (
	"fmt"
	"reflect"
	"slices"

	"wlansim/internal/bits"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
)

// This file is the simulator's one packet loop. A lane group takes the
// configurations of a group of sweep points and pushes them through the
// pipeline in lock-step, one packet at a time; on the behavioral front end
// the points are the lanes of one rf.BatchReceiver. Bench.Run is a group of
// one on any front end. Lane l's Result is bit-identical to the sequential
// loop's run of its Bench (the oracle in oracle_test.go): the invariant
// prefix is the same cached waveform either way, each lane's antenna noise
// comes from the lane's own restarted stream, the front end is exact by the
// lane differential tests, and the DSP receiver runs per lane unchanged.

// batchableConfigs validates that cfgs form one lane group: points that
// agree on every field that shapes the pipeline. Seed, ChannelSNRdB's
// value, TuneRF, Packets, TargetErrors and the cache wiring may differ per
// lane; everything else must match lane 0. A group of one runs on any front
// end; wider groups run on the behavioral front end only, where
// rf.NewLaneReceiver checks that the tuned receivers differ only in their
// LNA nonlinearity and channel-select filter.
func batchableConfigs(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("core: lane group of no points")
	}
	shape0 := laneShape(cfgs[0])
	for i, c := range cfgs {
		if len(cfgs) > 1 && c.FrontEnd != FrontEndBehavioral {
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
// A group of one is an ordinary group, and Bench.Run is one.
//
// Each packet runs in two halves. The front half serves every active lane's
// invariant prefix through the shared stage cache and runs the front end.
// Where the prefix ends follows from the lanes' configuration alone
// (batchFront.prefix is the one place that decides it):
//
//   - On the identity chain of an SNR sweep (noiseAfterFrontEnd) the prefix
//     is the noiseless baseband; the lane adds its noise and skips the front
//     end.
//   - Filter-only front-end sweep points (SweptFrontEndFilterOnly) share the
//     pre-filter waveform, so every lane reads the one cached entry, without a
//     copy, through its own filter (the lane receiver's pre-filter entry).
//   - Points whose swept parameter is past the channel start from the cached
//     antenna waveform; points sweeping the channel compose their own from
//     the cached TX frame, and points sweeping the TX run the full chain.
//     Lanes whose points carry a channel SNR of their own add their noise,
//     from their own per-point stream, to their own copy of the prefix.
//
// On the behavioral front end all lanes share one rf.BatchReceiver, and its
// internal noise/LO draws, which are identical across lanes by the fixed
// per-block reseeding contract; each lane runs through its own LNA
// nonlinearity and filter (the antenna entry). A group of one on another
// front end runs it (Reset, Process) on the lane's own copy of the prefix.
//
// The back half synchronizes and equalizes each lane on its own DSP
// receiver (reset per packet, so lanes cannot interact), completes every
// lane's Viterbi pass in one lock-step DecodeDeferredBatch, and accounts
// the packet. Lanes stop per lane, on TargetErrors or their own Packets:
// finished lanes drop out of subsequent packets exactly where their runs
// alone would stop.
//
// The caller runs packet 0's front half; the front half of every later
// packet runs one packet ahead on a helper goroutine (batchFront),
// overlapping packet p+1's front end with packet p's decode, without
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
	benches := make([]*Bench, len(cfgs))
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, 0, err
		}
		benches[i] = b
	}
	g, err := newLaneLoop(benches)
	if err != nil {
		return nil, 0, err
	}
	results, err := g.run()
	return results, g.front.unshared, err
}

// laneLoop is a lane group's packet loop, kept across runs: the lanes'
// benches, the front half and the back half's per-packet scratch.
type laneLoop struct {
	benches []*Bench
	mode    phy.Mode
	front   *batchFront
	evms    []evmAccum
	pkts    []*rxdsp.PacketResult
	rxErrs  []error
	laneRxs []*rxdsp.Receiver
}

// newLaneLoop builds the packet loop of a validated group: lane 0's front
// end and, on the behavioral front end, the lane receiver over every lane's
// tuned receiver configuration.
func newLaneLoop(benches []*Bench) (*laneLoop, error) {
	b0 := benches[0]
	os := b0.oversample()
	mode, err := phy.ModeByRate(b0.cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	fe, err := b0.buildFrontEnd(os)
	if err != nil {
		return nil, err
	}
	var lanes *rf.BatchReceiver
	if rx, ok := fe.(*rf.Receiver); ok {
		rcfgs := make([]rf.ReceiverConfig, len(benches))
		for l, b := range benches {
			rcfgs[l] = b.receiverConfig(os)
		}
		if lanes, err = rf.NewLaneReceiver(rx, rcfgs); err != nil {
			return nil, err
		}
		if b0.preFilterPrefix() {
			// The shared pre-filter waveform has passed lane 0's LNA.
			for l := range rcfgs {
				if rcfgs[l].LNA != rcfgs[0].LNA {
					return nil, fmt.Errorf("core: filter-only lane %d's LNA differs from lane 0's", l)
				}
			}
		}
	}
	for _, b := range benches {
		b.tx = &phy.Transmitter{Mode: mode}
	}
	L := len(benches)
	return &laneLoop{
		benches: benches,
		mode:    mode,
		front:   newBatchFront(benches, os, fe, lanes),
		evms:    make([]evmAccum, L),
		pkts:    make([]*rxdsp.PacketResult, 0, L),
		rxErrs:  make([]error, 0, L),
		laneRxs: make([]*rxdsp.Receiver, 0, L),
	}, nil
}

// run runs every lane's packets and returns one Result per lane.
func (g *laneLoop) run() ([]*Result, error) {
	f := g.front
	results := make([]*Result, len(g.benches))
	for l, b := range g.benches {
		if b.suffixNoise() {
			// Each lane's point-variant noise is its own sequential stream,
			// restarted at the point's noise seed every run.
			s := seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0)
			if b.noiseRNG == nil {
				b.noiseRNG = randutil.NewRandDirect(s)
			} else {
				b.noiseRNG.Seed(s)
			}
		}
		results[l] = &Result{OversampleFactor: f.os, FrontEnd: b.cfg.FrontEnd}
		g.evms[l] = evmAccum{}
	}

	defer f.stop()
	for s := f.start(); s != nil; s = f.next() {
		g.pkts, g.rxErrs, g.laneRxs = g.pkts[:0], g.rxErrs[:0], g.laneRxs[:0]
		for k, l := range s.active {
			b := g.benches[l]
			pkt, err := b.receiveDSP(s.basebands[k], g.mode)
			g.pkts = append(g.pkts, pkt)
			g.rxErrs = append(g.rxErrs, err)
			g.laneRxs = append(g.laneRxs, b.rx)
		}
		// One lock-step Viterbi pass over every lane that synchronized; a
		// lane's decode error is exactly the error its sequential Receive
		// would have returned, so it folds into the lane outcome below.
		derrs := rxdsp.DecodeDeferredBatch(g.laneRxs, g.pkts)
		for k, l := range s.active {
			rxErr := g.rxErrs[k]
			if rxErr == nil {
				rxErr = derrs[k]
			}
			// The front half derives the stop from the error counts below.
			g.benches[l].accountPacket(g.pkts[k], rxErr, s.refs[k], g.mode, results[l], &g.evms[l])
		}
		for l, res := range results {
			s.errs[l] = res.Counter.Errors
		}
		f.free <- s
	}
	if f.err != nil {
		return nil, f.err
	}
	for l := range results {
		g.evms[l].finish(results[l])
	}
	return results, nil
}

// batchSlot carries one packet of a lane group between the two halves of
// the packet loop. The front half fills active, refs and basebands; the
// back half reads them, accounts the packet, records errs and hands the
// slot back.
type batchSlot struct {
	active    []int          // lanes that run this packet
	refs      [][]byte       // reference payload bits, per active lane
	basebands [][]complex128 // front-end output, per active lane (slot-owned)
	errs      []int          // every lane's error count once the packet is accounted
}

// batchSlots is the number of packets in flight between the two halves:
// one being accounted, one being filled.
const batchSlots = 2

// batchFront is the front half of the packet loop: prefix lookup, antenna
// noise and the front end, into two slots that alternate between the
// halves. Packet 0 runs on the caller, every later packet one packet ahead
// on a helper goroutine. Front-half state (the stage cache lookups, each
// bench's noise stream and antenna scratch, the front end) is touched by
// the caller only before it starts the helper and after the helper's end
// mark, back-half state (each bench's DSP receiver, the results) only by
// the caller; slots change hands over the channels, which, like the slots,
// serve every run of the group.
type batchFront struct {
	benches   []*Bench
	os        int
	packets   int               // the most packets any lane runs
	preFilter bool              // lanes start from the shared pre-filter waveform
	baseband  bool              // the prefix is the baseband: no front end runs
	fe        rf.FrontEnd       // lane 0's front end (the lanes' template receiver on the behavioral front end)
	lanes     *rf.BatchReceiver // the behavioral lanes; nil on other front ends
	tx        *phy.Transmitter  // synthesizes the wanted frame on prefix misses
	miss      *Bench            // computes prefix misses; keeps the TX and channel scratch across packets
	waves     [][]complex128    // the packet's front-end inputs, per active lane
	slots     [batchSlots]batchSlot

	// The prefix lookups of the packet being filled, and how many of them
	// returned a different entry than an earlier lane with the same key in
	// the same packet. Lanes share one prefix, so unshared stays zero
	// unless the cache evicted the entry between two lanes' lookups (each
	// lane then reads its own, equal copy).
	keys     []sim.CacheKey
	entries  []*stageEntry
	unshared int

	filled  chan *batchSlot // filled packets, in packet order, then nil when the helper ends
	free    chan *batchSlot // accounted packets' slots, in packet order
	quit    chan struct{}   // closed by stop: the back half has returned early
	running bool            // the back half has not yet received the helper's end mark
	err     error           // why the helper ended early; read after its end mark

	// Helper-only view of the back half: every lane's error count as of the
	// last accounted packet, and how many packets that is; and the most
	// errors the last filled packet can add to a lane.
	errs      []int
	accounted int
	maxAdd    int
}

func newBatchFront(benches []*Bench, os int, fe rf.FrontEnd, lanes *rf.BatchReceiver) *batchFront {
	b0 := benches[0]
	f := &batchFront{
		benches:   benches,
		os:        os,
		preFilter: b0.preFilterPrefix(),
		baseband:  b0.noiseAfterFrontEnd(os),
		fe:        fe,
		lanes:     lanes,
		tx:        b0.tx,
		filled:    make(chan *batchSlot),
		free:      make(chan *batchSlot, batchSlots), // room for every slot: the back half never blocks
		quit:      make(chan struct{}),
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

// start begins a run. It fills packet 0 on the caller, whose caches hold
// the lanes' state from the last run (a one-packet run then never hands a
// packet across goroutines), and starts the helper on the packets after
// it. It returns packet 0's slot, or nil when no lane runs it or the front
// half failed (f.err).
func (f *batchFront) start() *batchSlot {
	clear(f.errs)
	f.accounted, f.err = 0, nil
	for len(f.free) > 0 {
		<-f.free // a slot the last run's helper did not wait for
	}
	s := f.fill(0)
	if s != nil {
		f.running = true
		go f.run()
	}
	return s
}

// next returns the next filled packet, or nil once the helper has ended.
func (f *batchFront) next() *batchSlot {
	s := <-f.filled
	f.running = s != nil
	return s
}

// stop ends a helper whose end mark the back half has not received — it
// left the loop early — wherever the helper waits, and returns once it has.
func (f *batchFront) stop() {
	if !f.running {
		return
	}
	close(f.quit)
	for <-f.filled != nil {
	}
	f.quit = make(chan struct{})
	f.running = false
}

// run is the helper: it fills the packets after packet 0, then sends the
// end mark.
func (f *batchFront) run() {
	f.fillAhead()
	f.filled <- nil
}

// fillAhead fills packet after packet from packet 1 on until every packet
// has run, every lane has stopped, the front half fails, or stop is called.
// Packet p reuses the slot of packet p-2, so it waits for that packet's
// accounting. It also waits for packet p-1's unless no lane can reach
// TargetErrors there: a packet adds at most len(refBits) errors to a lane,
// so the helper never runs a packet for a lane the serial loop would have
// stopped.
func (f *batchFront) fillAhead() {
	for p := 1; p < f.packets; p++ {
		if !f.await(p - 1) {
			return
		}
		if f.mayStop(f.maxAdd) && !f.await(p) {
			return
		}
		s := f.fill(p)
		if s == nil {
			return
		}
		select {
		case f.filled <- s:
		case <-f.quit:
			return
		}
	}
}

// fill runs packet p's front half for every lane still running into the
// packet's slot and returns it, or nil when no lane runs the packet or the
// front half failed (f.err). It records in f.maxAdd the most errors the
// packet can add to a lane.
func (f *batchFront) fill(p int) *batchSlot {
	s := &f.slots[p%batchSlots]
	s.active, s.refs, f.waves = s.active[:0], s.refs[:0], f.waves[:0]
	f.keys, f.entries = f.keys[:0], f.entries[:0]
	f.maxAdd = 0
	for l, b := range f.benches {
		if p >= b.cfg.Packets || b.targetReached(f.errs[l]) {
			continue
		}
		refBits, wave, err := f.prefix(b, p)
		if err != nil {
			f.err = err
			return nil
		}
		if len(f.waves) > 0 && len(wave) != len(f.waves[0]) {
			f.err = fmt.Errorf("core: lane %d packet %d prefix length %d != %d", l, p, len(wave), len(f.waves[0]))
			return nil
		}
		s.active = append(s.active, l)
		s.refs = append(s.refs, refBits)
		f.waves = append(f.waves, wave)
		f.maxAdd = max(f.maxAdd, len(refBits))
	}
	if len(s.active) == 0 {
		return nil
	}
	switch {
	case f.lanes == nil:
		// A group of one off the behavioral front end. The front end's
		// output is its own scratch, so the slot keeps a copy.
		out := f.waves[0]
		if !f.baseband {
			f.fe.Reset()
			out = f.fe.Process(out)
		}
		if len(s.basebands) == 0 {
			s.basebands = make([][]complex128, 1)
		}
		s.basebands[0] = append(s.basebands[0][:0], out...)
	case f.preFilter:
		s.basebands = f.lanes.ProcessFromFilterInto(s.basebands, s.active, f.waves)
	default:
		s.basebands = f.lanes.ProcessLanesInto(s.basebands, s.active, f.waves)
	}
	return s
}

// prefix serves lane bench b's front-end input of packet p. It is the one
// place that decides where a packet's prefix ends (see RunBenchBatch). The
// lane receiver only reads its input, so lanes without antenna noise of
// their own read a cached entry without a copy; a lane adding its own noise,
// or running another front end (the K-model writes its input), gets its own
// copy.
func (f *batchFront) prefix(b *Bench, p int) ([]byte, []complex128, error) {
	var e *stageEntry
	var err error
	switch {
	case f.baseband:
		// The identity front end's noiseless output: only the point's noise
		// is still to come.
		e, err = f.entry(b, b.stageKey(cacheKindBaseband, p, f.os, false), func(pb *Bench) (*stageEntry, error) {
			e, err := pb.fullPrefix(p, f.os, false)
			if err == nil {
				f.fe.Reset()
				e.wave = append([]complex128(nil), f.fe.Process(e.wave)...)
			}
			return e, err
		})
	case f.preFilter:
		// The behavioral front end up to the channel-select filter, computed
		// on lane 0's receiver. Exact because Receiver.Process is
		// ProcessToFilter∘ProcessFromFilter and every front-end noise/LO
		// stream restarts per packet from fixed seeds.
		withNoise := b.cfg.ChannelSNRdB != nil
		e, err = f.entry(b, b.stageKey(cacheKindPreFilter, p, f.os, withNoise), func(pb *Bench) (*stageEntry, error) {
			e, err := pb.fullPrefix(p, f.os, withNoise)
			if err == nil {
				rx := f.fe.(*rf.Receiver)
				rx.Reset()
				e.wave = rx.ProcessToFilter(e.wave)
			}
			return e, err
		})
	case b.cfg.SweptStage >= StageNoise:
		e, err = f.entry(b, b.stageKey(cacheKindAntenna, p, f.os, b.antennaNoise()), func(pb *Bench) (*stageEntry, error) {
			return pb.fullPrefix(p, f.os, pb.antennaNoise())
		})
	default:
		// TX or channel swept: the lane composes its own antenna waveform.
		refBits, wave, err := f.compose(b, p)
		if err == nil && b.suffixNoise() {
			b.addNoise(wave, f.os, b.noiseRNG)
		}
		return refBits, wave, err
	}
	if err != nil {
		return nil, nil, err
	}
	if !b.suffixNoise() && f.lanes != nil {
		return e.refBits, e.wave, nil
	}
	b.scratch = append(b.scratch[:0], e.wave...)
	if b.suffixNoise() {
		b.addNoise(b.scratch, f.os, b.noiseRNG)
	}
	return e.refBits, b.scratch, nil
}

// compose runs lane bench b's channel stage of packet p into the bench's
// reused antenna buffer: on the cached TX frame when only the channel is
// swept, on a fresh TX synthesis otherwise.
func (f *batchFront) compose(b *Bench, p int) ([]byte, []complex128, error) {
	var refBits []byte
	var frame *phy.Frame
	if b.cfg.SweptStage == StageChannel {
		e, err := f.entry(b, b.stageKey(cacheKindTX, p, f.os, false), func(pb *Bench) (*stageEntry, error) {
			psdu, frame, err := pb.synthTX(p)
			if err != nil {
				return nil, err
			}
			return &stageEntry{refBits: bits.FromBytes(psdu), wave: append([]complex128(nil), frame.Samples...)}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		// The composer only reads emitter samples, so the cached frame
		// waveform is aliased, not copied.
		refBits, frame = e.refBits, &phy.Frame{Samples: e.wave}
	} else {
		psdu, fr, err := b.synthTX(p)
		if err != nil {
			return nil, nil, err
		}
		refBits, frame = bits.FromBytes(psdu), fr
	}
	x, err := b.composeChannel(b.antenna[:0], frame, f.os, p)
	if err != nil {
		return nil, nil, err
	}
	b.antenna = x
	return refBits, x, nil
}

// entry serves lane bench b's cached prefix under key, which compute builds
// on a miss. With a cache every lane looks up its own key, so hits and
// misses count per point exactly as when each point runs alone; without
// one, a lane whose key an earlier lane already computed this packet reuses
// that entry instead of recomputing the identical prefix. A miss computes
// on the group's miss bench, given b's configuration, so the group holds
// one set of TX and channel scratch (composer, interferer streams), not
// one per lane. The prefix depends only on the configuration the lanes
// share, and the entry computed there is caller-owned.
func (f *batchFront) entry(b *Bench, key sim.CacheKey, compute func(pb *Bench) (*stageEntry, error)) (*stageEntry, error) {
	first := slices.Index(f.keys, key)
	if first >= 0 && b.cfg.Cache == nil {
		return f.entries[first], nil
	}
	v, err := b.cfg.Cache.GetOrCompute(key, func() (any, int64, error) {
		if f.miss == nil {
			f.miss = &Bench{tx: f.tx}
		}
		f.miss.cfg, f.miss.keyContent = b.cfg, b.keyContent
		e, err := compute(f.miss)
		if err != nil {
			return nil, 0, err
		}
		return e, e.sizeBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	e := v.(*stageEntry)
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
