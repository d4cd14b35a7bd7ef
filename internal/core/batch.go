package core

import (
	"fmt"

	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
)

// This file is the system-level end of the batched pipeline: RunBenchBatch
// takes B sweep-point configurations that differ only in their noise (Seed
// and ChannelSNRdB) and pushes all B points through the behavioral front end
// in lock-step, one packet at a time, via rf.BatchReceiver. Lane l's Result
// is bit-identical to running its Bench sequentially: the invariant prefix
// is the same cached waveform either way, each lane's antenna noise comes
// from the lane's own restarted stream, the front end is exact by the batch
// differential tests, and the DSP receiver runs per lane unchanged.

// batchableConfigs validates that cfgs form one batch group: a noise-only
// sweep over the behavioral front end whose lanes agree on every field that
// shapes the pipeline. Seed, ChannelSNRdB and the cache wiring may differ
// per lane; everything else must match lane 0.
func batchableConfigs(cfgs []Config) error {
	if len(cfgs) < 2 {
		return fmt.Errorf("core: batch of %d points (need >= 2)", len(cfgs))
	}
	c0 := cfgs[0]
	for i, c := range cfgs {
		if c.SweptStage != StageNoise {
			return fmt.Errorf("core: batch lane %d sweeps stage %v, not noise", i, c.SweptStage)
		}
		if c.FrontEnd != FrontEndBehavioral {
			return fmt.Errorf("core: batch lane %d front end %v is not behavioral", i, c.FrontEnd)
		}
		if c.ChannelSNRdB == nil {
			return fmt.Errorf("core: batch lane %d has no channel SNR", i)
		}
		if c.UseIdealRxTiming {
			return fmt.Errorf("core: batch lane %d uses ideal RX timing", i)
		}
		same := c.RateMbps == c0.RateMbps && c.PSDULen == c0.PSDULen &&
			c.Packets == c0.Packets && c.MultipathTaps == c0.MultipathTaps &&
			len(c.Interferers) == len(c0.Interferers) &&
			c.HardDecisions == c0.HardDecisions && c.DisableCSI == c0.DisableCSI &&
			c.TargetErrors == c0.TargetErrors && c.ContentSeed == c0.ContentSeed
		//lint:ignore floateq lanes must agree on the exact configured values — a tolerance would batch distinct configs together
		same = same && c.WantedPowerDBm == c0.WantedPowerDBm && c.CFOHz == c0.CFOHz && c.MultipathRMSSamples == c0.MultipathRMSSamples && c.DopplerHz == c0.DopplerHz && c.SampleClockPPM == c0.SampleClockPPM
		if !same {
			return fmt.Errorf("core: batch lane %d differs from lane 0 beyond Seed/ChannelSNRdB", i)
		}
		for j := range c.Interferers {
			if c.Interferers[j] != c0.Interferers[j] {
				return fmt.Errorf("core: batch lane %d interferer %d differs from lane 0", i, j)
			}
		}
	}
	return nil
}

// RunBenchBatch runs B equal-config noise-sweep points in lock-step and
// returns one Result per lane, each bit-identical to NewBench(cfgs[l]).Run().
//
// Each packet runs in two halves. The front half serves every active lane's
// invariant prefix (TX + channel) through the shared stage cache (lane 0
// synthesizes, the rest hit), adds the lane's own antenna noise from its own
// per-point stream, and runs the B noisy antenna frames through one
// rf.BatchReceiver — sharing the front end's internal noise/LO draws, which
// are identical across lanes by the fixed per-block reseeding contract. The
// back half synchronizes and equalizes each lane on its own DSP receiver
// (reset per packet, so lanes cannot interact), completes every lane's
// Viterbi pass in one lock-step DecodeDeferredBatch, and accounts the
// packet. Early stopping (TargetErrors) is tracked per lane: finished lanes
// drop out of subsequent packets exactly as their sequential runs stop.
//
// The front half runs one packet ahead on a helper goroutine (batchFront),
// overlapping packet p+1's RF lanes with packet p's decode, without
// speculation: it starts packet p+1 before packet p is accounted only when
// no lane can reach TargetErrors in packet p. Every lane's noise draws,
// cache lookups and AGC history are therefore the serial loop's.
func RunBenchBatch(cfgs []Config) ([]*Result, error) {
	if err := batchableConfigs(cfgs); err != nil {
		return nil, err
	}
	L := len(cfgs)
	benches := make([]*Bench, L)
	for i := range cfgs {
		b, err := NewBench(cfgs[i])
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}

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
	rx, ok := fe.(*rf.Receiver)
	if !ok {
		return nil, fmt.Errorf("core: behavioral front end built %T, not *rf.Receiver", fe)
	}

	results := make([]*Result, L)
	evms := make([]evmAccum, L)
	for l, b := range benches {
		b.tx = &phy.Transmitter{Mode: mode}
		// Each lane's point-variant noise is its own sequential per-run
		// stream, exactly as in Run (suffixNoise holds for every lane).
		s := seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0)
		b.noiseRNG = randutil.NewRandDirect(s)
		b.noiseMarked = true
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

	front := newBatchFront(benches, os, rf.NewBatchReceiver(rx))
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
		return nil, front.err
	}
	for l := range results {
		evms[l].finish(results[l])
	}
	return results, nil
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
// antenna scratch, the batch receiver) is touched only by the helper;
// back-half state (each bench's DSP receiver, the results) only by the
// caller; slots change hands over the channels.
type batchFront struct {
	benches []*Bench
	os      int
	rx      *rf.BatchReceiver
	waves   [][]complex128 // the packet's antenna frames, per active lane (bench scratch)
	slots   [batchSlots]batchSlot

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

func newBatchFront(benches []*Bench, os int, rx *rf.BatchReceiver) *batchFront {
	f := &batchFront{
		benches: benches,
		os:      os,
		rx:      rx,
		filled:  make(chan *batchSlot),
		free:    make(chan *batchSlot, batchSlots), // room for every slot: the back half never blocks
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		errs:    make([]int, len(benches)),
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
	for p := 0; p < f.benches[0].cfg.Packets; p++ {
		if !f.await(p - 1) {
			return
		}
		if p > 0 && f.mayStop(maxAdd) && !f.await(p) {
			return
		}
		s := &f.slots[p%batchSlots]
		s.active, s.refs, f.waves = s.active[:0], s.refs[:0], f.waves[:0]
		maxAdd = 0
		for l, b := range f.benches {
			if b.targetReached(f.errs[l]) {
				continue
			}
			refBits, wave, boundary, err := b.packetPrefix(p, f.os)
			if err != nil {
				f.err = err
				return
			}
			if boundary != prefixAntenna {
				f.err = fmt.Errorf("core: batch lane %d prefix boundary %d, want antenna", l, boundary)
				return
			}
			b.addNoise(wave, f.os, b.noiseRNG)
			s.active = append(s.active, l)
			s.refs = append(s.refs, refBits)
			f.waves = append(f.waves, wave)
			maxAdd = max(maxAdd, len(refBits))
		}
		if len(s.active) == 0 {
			return
		}
		s.basebands = f.rx.ProcessInto(s.basebands, f.waves)
		select {
		case f.filled <- s:
		case <-f.quit:
			return
		}
	}
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
