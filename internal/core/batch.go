package core

import (
	"fmt"
	"reflect"
	"slices"

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
// group per two workers, since a group's packet loop keeps two CPUs busy
// (its prefix and lane stages beside the decode), and beyond that as few
// groups as width allows.
func laneGroups(n, workers, width int) int {
	return max((workers+1)/2, (n+width-1)/width)
}

// RunBenchBatch runs a group of sweep points as lanes in lock-step and
// returns one Result per lane, each bit-identical to NewBench(cfgs[l]).Run().
// A group of one is an ordinary group, and Bench.Run is one.
//
// Each packet runs in two halves. The front half serves every active lane's
// invariant prefix through the shared stage cache and runs the front end.
// Where the prefix ends follows from the lanes' configuration alone
// (batchFront.prefix is the one place that decides it), at one of two
// boundaries:
//
//   - Filter-only front-end sweep points (SweptFrontEndFilterOnly) share the
//     pre-filter waveform, so every lane reads the one cached entry, without a
//     copy, through its own filter (the lane receiver's pre-filter entry).
//   - Every other point whose swept parameter is past the channel starts
//     from the cached antenna waveform.
//
// Points sweeping the TX or the channel share no prefix and run their own
// chain. Lanes whose points carry a channel SNR of their own add their
// noise, from their own per-point stream, to their own copy of the prefix.
//
// On the behavioral front end all lanes share one rf.BatchReceiver, and its
// internal noise/LO draws, which are identical across lanes by the fixed
// per-block reseeding contract; each lane runs through its own LNA
// nonlinearity and filter (the antenna entry). A group of one on another
// front end runs it (Reset, Process) on the lane's own copy of the prefix.
//
// The back half receives every lane on its own DSP receiver in one group
// receive (sync, equalization and the DATA-field decode, one lock-step
// Viterbi pass per SIGNAL shape; lanes cannot interact), and accounts the
// packet. Lanes stop per lane, on TargetErrors or their own Packets:
// finished lanes drop out of subsequent packets exactly where their runs
// alone would stop.
//
// The front half runs as two pipeline stages beside the back half on the
// caller: the prefix stage (batchFront.fill) picks packet p+1's active
// lanes, serves their prefixes and computes the misses, while the lane stage
// (batchFront.runLanes) adds packet p's antenna noise and runs its front
// end, and the caller decodes packet p-1. Each stage runs its packets in
// order, and every piece of state belongs to one stage, so every lane's
// noise draws, cache lookups and AGC history are the serial loop's. The
// prefix stage does not speculate: it starts a packet while earlier packets
// are still unaccounted only when no lane can reach TargetErrors within
// them. A one-packet run runs both stages on the caller and starts no
// goroutine.
func RunBenchBatch(cfgs []Config) ([]*Result, error) {
	if err := batchableConfigs(cfgs); err != nil {
		return nil, err
	}
	benches := make([]*Bench, len(cfgs))
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	g, err := newLaneLoop(benches)
	if err != nil {
		return nil, err
	}
	return g.run()
}

// laneLoop is a lane group's packet loop, kept across runs: the lanes'
// benches, the front half and the back half's per-packet scratch.
type laneLoop struct {
	benches []*Bench
	mode    phy.Mode
	front   *batchFront
	evms    []evmAccum
	rx      *rxdsp.Group // the synchronizing receivers' group receive
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
		rx:      rxdsp.NewGroup(),
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
		g.receive(s)
		for k, l := range s.active {
			// The front half derives the stop from the error counts below.
			g.benches[l].accountPacket(g.pkts[k], g.rxErrs[k], s.refs[k], g.mode, results[l], &g.evms[l])
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

// receive runs the DSP receive of slot s's active lanes into pkts and
// rxErrs: the synchronizing receivers, one per lane, as one group receive,
// or the genie-timed ideal receivers lane by lane (a group's lanes agree on
// UseIdealRxTiming).
func (g *laneLoop) receive(s *batchSlot) {
	g.pkts, g.rxErrs = g.pkts[:0], g.rxErrs[:0]
	if g.benches[0].cfg.UseIdealRxTiming {
		for k, l := range s.active {
			b := g.benches[l]
			if b.irx == nil {
				b.irx = &rxdsp.IdealReceiver{Mode: g.mode, PSDULen: b.cfg.PSDULen, ReuseBuffers: true}
			}
			pkt, err := b.irx.Receive(s.basebands[k], leadInSamples)
			g.pkts = append(g.pkts, pkt)
			g.rxErrs = append(g.rxErrs, err)
		}
		return
	}
	g.laneRxs = g.laneRxs[:0]
	for _, l := range s.active {
		b := g.benches[l]
		if b.rx == nil {
			b.rx = rxdsp.NewReceiver()
			b.rx.HardDecisions = b.cfg.HardDecisions
			b.rx.DisableCSI = b.cfg.DisableCSI
			b.rx.ReuseBuffers = true
		}
		g.laneRxs = append(g.laneRxs, b.rx)
	}
	pkts, errs := g.rx.Receive(g.laneRxs, s.basebands[:len(s.active)], 0)
	g.pkts = append(g.pkts, pkts...)
	g.rxErrs = append(g.rxErrs, errs...)
}

// batchSlot carries one packet of a lane group through the packet loop. The
// prefix stage fills p, active, refs, waves and maxAdd; the lane stage
// replaces waves with the front-end inputs and sets basebands; the back half
// reads them, accounts the packet, records errs and hands the slot back.
type batchSlot struct {
	p         int            // the packet
	active    []int          // lanes that run this packet
	refs      [][]byte       // reference payload bits, per active lane
	waves     [][]complex128 // prefix waveform, then front-end input, per active lane
	own       [][]complex128 // per lane: the waveform of a lane that runs its own chain (slot-owned)
	basebands [][]complex128 // front-end output, per active lane (one of batchFront.outs)
	maxAdd    int            // the most errors this packet can add to a lane
	errs      []int          // every lane's error count once the packet is accounted
}

// batchSlots is the number of packets in flight: one in the prefix stage,
// one in the lane stage and one being accounted.
const batchSlots = 3

// batchFront is the front half of the packet loop, in two stages: the
// prefix stage (active lanes, stage-cache lookups and misses) and the lane
// stage (antenna noise and the front end). A one-packet run runs both on the
// caller; a longer one runs each on a goroutine of its own, the prefix stage
// handing slots to the lane stage and the lane stage to the back half over
// unbuffered channels, in packet order, each ended by a nil end mark. State
// belongs to one stage: the prefix stage owns the stage-cache lookups, the
// miss bench, each bench's TX and channel scratch and the error view below;
// the lane stage owns each bench's noise stream and input scratch, the front
// end and outs; the caller owns each bench's DSP receiver and the results.
type batchFront struct {
	benches   []*Bench
	os        int
	packets   int               // the most packets any lane runs
	preFilter bool              // lanes start from the shared pre-filter waveform
	fe        rf.FrontEnd       // lane 0's front end (the lanes' template receiver on the behavioral front end)
	lanes     *rf.BatchReceiver // the behavioral lanes; nil on other front ends
	tx        *phy.Transmitter  // synthesizes the wanted frame on prefix misses
	miss      *Bench            // computes prefix misses; keeps the TX and channel scratch across packets
	slots     [batchSlots]batchSlot
	// outs are the lane stage's two output sets: packet p's basebands go to
	// outs[p%2]. The lane stage takes packet p only after the back half has
	// taken packet p-1, by which time the back half is done with packet
	// p-2's.
	outs [2][][]complex128

	// The prefix lookups of the packet being filled.
	keys    []sim.CacheKey
	entries []*stageEntry

	prefixed chan *batchSlot // prefix stage to lane stage
	filled   chan *batchSlot // lane stage to back half
	free     chan *batchSlot // accounted packets' slots, in packet order
	quit     chan struct{}   // closed by stop: the back half has returned early
	running  bool            // the back half has not yet received the lane stage's end mark
	err      error           // why the prefix stage ended early; read after the end mark

	// The prefix stage's view of the back half: every lane's error count as
	// of the last accounted packet, and how many packets that is.
	errs      []int
	accounted int
}

func newBatchFront(benches []*Bench, os int, fe rf.FrontEnd, lanes *rf.BatchReceiver) *batchFront {
	b0 := benches[0]
	f := &batchFront{
		benches:   benches,
		os:        os,
		preFilter: b0.preFilterPrefix(),
		fe:        fe,
		lanes:     lanes,
		tx:        b0.tx,
		prefixed:  make(chan *batchSlot),
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
		f.slots[i].own = make([][]complex128, len(benches))
	}
	return f
}

// start begins a run and returns packet 0's slot, or nil when no lane runs
// it or the prefix stage failed (f.err). A one-packet run fills and runs its
// packet on the caller; a longer one starts the two stages.
func (f *batchFront) start() *batchSlot {
	clear(f.errs)
	f.accounted, f.err = 0, nil
	for len(f.free) > 0 {
		<-f.free // a slot the last run's prefix stage did not wait for
	}
	if f.packets == 1 {
		s := f.fill(0)
		if s != nil {
			f.runLanes(s)
		}
		return s
	}
	f.running = true
	go f.prefixStage()
	go f.laneStage()
	return f.next()
}

// next returns the next packet whose front half has run, or nil once the
// stages have ended.
func (f *batchFront) next() *batchSlot {
	if !f.running {
		return nil
	}
	s := <-f.filled
	f.running = s != nil
	return s
}

// stop ends stages whose end mark the back half has not received — it left
// the loop early — wherever they wait, and returns once they have.
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

// prefixStage fills packet after packet until every packet has run, every
// lane has stopped, the stage fails, or stop is called, then sends the end
// mark. Packet p reuses the slot of packet p-3, so it waits for that
// packet's accounting. It also waits, packet by packet, for the accounting
// of the packets before it while a lane could reach TargetErrors within
// them: a packet adds at most maxAdd errors to a lane, so the stage never
// starts a packet for a lane the serial loop would have stopped.
func (f *batchFront) prefixStage() {
	defer func() { f.prefixed <- nil }()
	for p := 0; p < f.packets; p++ {
		if !f.await(p - (batchSlots - 1)) {
			return
		}
		for f.accounted < p && f.mayStop(p) {
			if !f.await(f.accounted + 1) {
				return
			}
		}
		s := f.fill(p)
		if s == nil {
			return
		}
		select {
		case f.prefixed <- s:
		case <-f.quit:
			return
		}
	}
}

// laneStage runs the front end of every packet the prefix stage hands it and
// passes the packet on, until the prefix stage's end mark or stop; it then
// sends its own end mark, having taken the prefix stage's.
func (f *batchFront) laneStage() {
	defer func() { f.filled <- nil }()
	for s := <-f.prefixed; s != nil; s = <-f.prefixed {
		f.runLanes(s)
		select {
		case f.filled <- s:
		case <-f.quit:
			for <-f.prefixed != nil {
			}
			return
		}
	}
}

// fill runs packet p's prefix stage for every lane still running into the
// packet's slot and returns it, or nil when no lane runs the packet or a
// prefix failed (f.err).
func (f *batchFront) fill(p int) *batchSlot {
	s := &f.slots[p%batchSlots]
	s.p, s.maxAdd = p, 0
	s.active, s.refs, s.waves = s.active[:0], s.refs[:0], s.waves[:0]
	f.keys, f.entries = f.keys[:0], f.entries[:0]
	for l, b := range f.benches {
		if p >= b.cfg.Packets || b.targetReached(f.errs[l]) {
			continue
		}
		refBits, wave, err := f.prefix(s, l)
		if err != nil {
			f.err = err
			return nil
		}
		if len(s.waves) > 0 && len(wave) != len(s.waves[0]) {
			f.err = fmt.Errorf("core: lane %d packet %d prefix length %d != %d", l, p, len(wave), len(s.waves[0]))
			return nil
		}
		s.active = append(s.active, l)
		s.refs = append(s.refs, refBits)
		s.waves = append(s.waves, wave)
		s.maxAdd = max(s.maxAdd, len(refBits))
	}
	if len(s.active) == 0 {
		return nil
	}
	return s
}

// prefix serves lane l's prefix waveform of slot s's packet. It is the one
// place that decides where a packet's prefix ends (see RunBenchBatch). A
// lane running its own chain writes it into its buffer in the slot; every
// other lane gets the cached entry, which the lane stage only reads.
func (f *batchFront) prefix(s *batchSlot, l int) ([]byte, []complex128, error) {
	b, p := f.benches[l], s.p
	if b.cfg.SweptStage < StageNoise {
		// TX or channel swept: the lane runs its own chain.
		e, err := b.fullPrefix(s.own[l][:0], p, f.os, false)
		if err != nil {
			return nil, nil, err
		}
		s.own[l] = e.wave
		return e.refBits, e.wave, nil
	}
	kind := cacheKindAntenna
	if f.preFilter {
		kind = cacheKindPreFilter
	}
	e, err := f.entry(b, b.stageKey(kind, p, f.os, b.antennaNoise()), func(pb *Bench) (*stageEntry, error) {
		e, err := pb.fullPrefix(nil, p, f.os, pb.antennaNoise())
		if err == nil && f.preFilter {
			// The behavioral front end up to the channel-select filter,
			// computed on lane 0's receiver, whose noise and LO blocks the
			// pre-filter entry of the lane stage never touches. Exact because
			// Receiver.Process is ProcessToFilter∘ProcessFromFilter and every
			// front-end noise/LO stream restarts per packet from fixed seeds.
			rx := f.fe.(*rf.Receiver)
			rx.Reset()
			e.wave = rx.ProcessToFilter(e.wave)
		}
		return &e, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.refBits, e.wave, nil
}

// runLanes runs slot s's lane stage: each lane's front-end input, then the
// front end into outs. The lane receiver only reads its input, so a lane
// without antenna noise of its own reads its cached entry without a copy; a
// lane adding its own noise, or running another front end (the K-model
// writes its input), gets its own copy, and a lane running its own chain
// owns its waveform already.
func (f *batchFront) runLanes(s *batchSlot) {
	for k, l := range s.active {
		b := f.benches[l]
		wave := s.waves[k]
		if b.cfg.SweptStage >= StageNoise && (b.suffixNoise() || f.lanes == nil) {
			b.scratch = append(b.scratch[:0], wave...)
			wave = b.scratch
		}
		if b.suffixNoise() {
			b.addNoise(wave, f.os, b.noiseRNG)
		}
		s.waves[k] = wave
	}
	out := &f.outs[s.p%2]
	switch {
	case f.lanes == nil:
		// A group of one off the behavioral front end. The front end's
		// output is its own scratch, so outs keeps a copy.
		f.fe.Reset()
		bb := f.fe.Process(s.waves[0])
		if len(*out) == 0 {
			*out = make([][]complex128, 1)
		}
		(*out)[0] = append((*out)[0][:0], bb...)
	case f.preFilter:
		*out = f.lanes.ProcessFromFilterInto(*out, s.active, s.waves)
	default:
		*out = f.lanes.ProcessLanesInto(*out, s.active, s.waves)
	}
	s.basebands = *out
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

// mayStop reports whether a lane still running can reach TargetErrors
// within the packets before p that are not yet accounted, each adding at
// most its slot's maxAdd errors to the lane.
func (f *batchFront) mayStop(p int) bool {
	pending := 0
	for q := f.accounted; q < p; q++ {
		pending += f.slots[q%batchSlots].maxAdd
	}
	for l, b := range f.benches {
		if !b.targetReached(f.errs[l]) && b.targetReached(f.errs[l]+pending) {
			return true
		}
	}
	return false
}
