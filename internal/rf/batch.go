package rf

import (
	"fmt"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
)

// The lane receiver (BatchReceiver) runs several lanes of one behavioral
// receiver in lock-step, one packet per call. A lane is a sweep point: lanes
// agree on every block but the LNA nonlinearity and the channel-select
// filter, and each lane keeps its own history by lane id. It is the one
// implementation of the behavioral front end: Receiver runs every call as
// lane 0 of a lane receiver of its own. Exactness is the contract: lane l is
// bit-identical to the sequential chain (the oracle in oracle_test.go)
// built from the lane's configuration and carrying the same packet history,
// which the differential front-end tests pin frame for frame.
//
// The lane wins come from four places, none of which changes a bit:
//
//   - Every internal stochastic stream (amplifier and mixer noise, LO phase
//     noise) restarts from its fixed per-block seed on Reset, so all lanes
//     would draw the identical sequences; the batch restarts once and
//     materializes each stream into a plane shared across lanes (the
//     randutil batched-draw property). The LNA's noise is input-referred,
//     so lanes whose LNAs differ in gain or nonlinearity still share it and
//     apply their own memoryless amplifier after the shared noise add.
//   - The filters' biquad recurrences are latency-bound; every lane's
//     filter runs lane-interleaved through kernels.BiquadBatch, each lane
//     with its own section coefficients.
//   - Each mixer fills its LO trajectory once per block and applies it to
//     every lane.
//   - The AGC loop is a serial per-sample recurrence; kernels.AGCLanes
//     steps the lanes four to a vector.
//   - Both entries stream each packet in blocks that stay cache-resident:
//     from the antenna the LNA, the mixers and the DC block run planar over
//     a block of every lane (the pre-filter entry splits its waveform into
//     planes instead), then every lane's filter, the AGC, ADC and
//     decimation finish the block. Every block's state (noise generators,
//     LO phase, biquad delays, AGC loop) carries to the next, so the blocks
//     compute the frame's samples exactly.

// processBatch is the amplifier's one frame body: it amplifies one block of
// B lanes into planar form. src[k] is lane k's block, read only, and its
// output lands in xr[k] and xi[k]. It draws a's noise stream once for the
// block into nre/nim and applies lane k's own amplifier amps[k] — the exact
// per-sample nonlinearity of its configuration — after the shared noise add.
// Writing the planes is pure data movement, so the values are the complex
// path's bit for bit. Amplifier.Process is a one-lane call.
func (a *Amplifier) processBatch(xr, xi [][]float64, src [][]complex128, amps []*Amplifier, nre, nim []float64) {
	n := len(src[0])
	if a.noise == nil {
		for k, lane := range src {
			amp, re, im := amps[k], xr[k][:n], xi[k][:n]
			for i, v := range lane {
				y := amp.amplify(v)
				re[i], im[i] = real(y), imag(y)
			}
		}
		return
	}
	nre, nim = nre[:n], nim[:n]
	a.noise.FillNormPairs(nre, nim)
	kernels.ScalePlane(nre, a.nsig)
	kernels.ScalePlane(nim, a.nsig)
	for k, lane := range src {
		amp, re, im := amps[k], xr[k][:n], xi[k][:n]
		for i, v := range lane {
			y := amp.amplify(v + complex(nre[i], nim[i]))
			re[i], im[i] = real(y), imag(y)
		}
	}
}

// processBatchPlanar is the mixer's one frame body: it mixes B planar lanes
// in place. One materialized noise plane is added component-wise (the same
// float adds the scalar path's complex add performs), the LO trajectory is
// filled once (or taken from a pair prefill), then the planar mixer kernel
// runs on each lane. Mixer.Process is a one-lane call.
func (m *Mixer) processBatchPlanar(xr, xi [][]float64, nre, nim []float64) {
	n := len(xr[0])
	if n == 0 {
		return
	}
	if m.noise != nil {
		nre, nim = nre[:n], nim[:n]
		m.noise.FillNormPairs(nre, nim)
		kernels.ScalePlane(nre, m.nsig)
		kernels.ScalePlane(nim, m.nsig)
		for l := range xr {
			kernels.AddPlane(xr[l][:n], nre)
			kernels.AddPlane(xi[l][:n], nim)
		}
	}
	mur, mui := real(m.mu), imag(m.mu)
	nur, nui := real(m.nu), imag(m.nu)
	dcr, dci := real(m.dc), imag(m.dc)
	if m.lo != nil {
		if m.loFilled && m.lov.Len() == n {
			m.loFilled = false
		} else {
			m.lov.Grow(n)
			m.lo.fill(m.lov.Re, m.lov.Im)
		}
	}
	for l := range xr {
		if m.lo != nil {
			kernels.MixApplyLO(xr[l], xi[l], m.lov.Re, m.lov.Im, mur, mui, nur, nui, m.g, dcr, dci)
		} else {
			kernels.MixApply(xr[l], xi[l], mur, mui, nur, nui, m.g, dcr, dci)
		}
	}
}

// BatchReceiver is the lane receiver: it runs several lanes of one
// behavioral receiver — sweep points that agree on every block but the LNA
// nonlinearity and the channel-select filter — through the front end in
// lock-step, one packet per call. It has two entries. ProcessLanesInto
// takes each lane's antenna frame and runs the whole chain, each lane
// through its own LNA nonlinearity; ProcessFromFilterInto takes each lane's
// pre-filter waveform (what Receiver.ProcessToFilter computes), which lanes
// differing only in the filter share, and runs the filter onward. Both
// entries stream the packet in blocks and end in one back half: every
// lane's filter, the lane-interleaved AGC loop, then ADC and decimation
// fused. Both only read their sources, so lanes may share one.
//
// Lanes are named by id. A lane keeps its AGC resync counter, ADC clip
// count, own LNA and own filter by id across calls, so a lane that sits out
// a packet (a sweep point that reached its error target) leaves every other
// lane's history untouched. Every call of the entries starts a packet;
// Receiver's one-lane calls instead continue lane 0's packet, which only
// Receiver.Reset restarts.
type BatchReceiver struct {
	rx *Receiver

	nre, nim []float64   // shared per-block noise plane scratch
	xr, xi   [][]float64 // per-call-lane planar block scratch
	dcb      *dsp.IIRBatch
	// chs is the channel-select filter bank: its lane l is lane id l's
	// filter, rx's design or, for a lane NewLaneReceiver tuned, its own.
	chs *dsp.IIRBatch

	lanes []laneState // per lane id
	// ownLNA reports that some lane's LNA nonlinearity differs from rx's.
	ownLNA bool

	amps []*Amplifier      // per-call-lane LNAs
	st   []kernels.AGCLane // AGC state of the call's lanes
	blk  [][]complex128    // per-call-lane block buffers
	view [][]complex128    // per-call-lane views of the current block
	ids  []int             // 0, 1, ...: the lane ids of the positional entries
	outs [][]complex128    // Process's per-lane outputs, reused
}

// laneState is what a lane carries across calls; its filter state is
// lane id's lane of chs.
type laneState struct {
	lna   *Amplifier      // LNA whose nonlinearity the lane applies (rx's or its own)
	agc   kernels.AGCLane // AGC loop state; only its resync counter spans packets
	clip  int             // ADC clip count since the packet started
	phase int             // samples into the packet, mod the decimation factor
}

// laneBlock is the streaming block length in samples: a block of every lane
// stays cache-resident from the LNA (or the filter) to the ADC.
const laneBlock = 256

// NewBatchReceiver builds the lane receiver whose lanes all have rx's
// configuration; lane ids are unbounded. The lane receiver owns all
// per-lane state and shares rx's noise and LO blocks, so its calls and rx's
// own must not overlap.
func NewBatchReceiver(rx *Receiver) *BatchReceiver {
	b := &BatchReceiver{rx: rx,
		nre: make([]float64, laneBlock), nim: make([]float64, laneBlock)}
	if rx.dcBlock != nil {
		b.dcb = dsp.NewIIRBatch(rx.dcBlock.iir)
	}
	var ch *dsp.IIR
	if rx.chanSel != nil {
		ch = rx.chanSel.iir
	}
	b.chs = dsp.NewIIRBatch(ch)
	return b
}

// NewLaneReceiver builds the lane receiver whose lane l has the tuned
// configuration cfgs[l] (lane ids past the last have rx's). rx supplies
// every block but the lanes' LNA nonlinearities and filters: each
// configuration must equal rx's apart from ChannelFilterOrder,
// ChannelFilterEdgeHz and ChannelFilterRippleDB and the LNA fields that
// shape its memoryless amplifier (Model, GainDB, IIP3DBm, CompressionDBm,
// UseCompression and AMPMDegPerDB). The LNA's input-referred noise, both
// mixers and the DC block stay rx's and are shared by every lane.
func NewLaneReceiver(rx *Receiver, cfgs []ReceiverConfig) (*BatchReceiver, error) {
	b := NewBatchReceiver(rx)
	b.lanes = make([]laneState, len(cfgs))
	for l, cfg := range cfgs {
		b.lanes[l].lna = rx.lna
		cfg = cfg.asBuilt()
		if !sameLaneBlocks(cfg, rx.cfg) {
			return nil, fmt.Errorf("rf: lane %d differs from the receiver beyond the LNA nonlinearity and the channel-select filter", l)
		}
		if cfg.LNA != rx.cfg.LNA {
			// Only amplify runs per lane; the noise is rx's LNA's.
			lna := cfg.LNA
			lna.DisableNoise = true
			amp, err := NewAmplifier(lna)
			if err != nil {
				return nil, fmt.Errorf("rf: lane %d: %w", l, err)
			}
			b.lanes[l].lna = amp
			b.ownLNA = true
		}
		if sameFilter(cfg, rx.cfg) {
			continue
		}
		var f *dsp.IIR
		if cfg.ChannelFilterOrder > 0 {
			ch, err := NewChebyshevLowpass(cfg.ChannelFilterOrder,
				cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, cfg.SampleRateHz)
			if err != nil {
				return nil, fmt.Errorf("rf: lane %d: %w", l, err)
			}
			f = ch.iir
		}
		b.chs.SetLane(l, f)
	}
	return b, nil
}

// sameLaneBlocks reports whether the built configurations a and b configure
// the same receiver apart from the channel-select filter and the LNA
// nonlinearity fields.
func sameLaneBlocks(a, b ReceiverConfig) bool {
	if !sameLO(a.Mixer1.LO, b.Mixer1.LO) || !sameLO(a.Mixer2.LO, b.Mixer2.LO) {
		return false
	}
	for _, c := range []*ReceiverConfig{&a, &b} {
		c.LNA.Model, c.LNA.GainDB, c.LNA.IIP3DBm, c.LNA.CompressionDBm = 0, 0, 0, 0
		c.LNA.UseCompression, c.LNA.AMPMDegPerDB = false, 0
		c.Mixer1.LO, c.Mixer2.LO = nil, nil
		c.ChannelFilterOrder, c.ChannelFilterEdgeHz, c.ChannelFilterRippleDB = 0, 0, 0
	}
	return a == b
}

// sameFilter reports whether a and b configure the same channel-select
// filter (any two orders <= 0 mean none).
func sameFilter(a, b ReceiverConfig) bool {
	if a.ChannelFilterOrder <= 0 || b.ChannelFilterOrder <= 0 {
		return a.ChannelFilterOrder <= 0 && b.ChannelFilterOrder <= 0
	}
	//lint:ignore floateq lanes share a filter only on the exact configured design — a tolerance would run one lane through another's filter
	return a.ChannelFilterOrder == b.ChannelFilterOrder && a.ChannelFilterEdgeHz == b.ChannelFilterEdgeHz && a.ChannelFilterRippleDB == b.ChannelFilterRippleDB
}

func sameLO(a, b *LOConfig) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// Process runs one packet's antenna frames, frame l on lane l, and returns
// the per-lane 20 MHz baseband. The returned slices are owned by the lane
// receiver (reused by the next call); otherwise it is ProcessLanesInto.
func (b *BatchReceiver) Process(lanes [][]complex128) [][]complex128 {
	b.outs = b.ProcessInto(b.outs, lanes)
	return b.outs
}

// ProcessInto is ProcessLanesInto with frame l on lane l.
func (b *BatchReceiver) ProcessInto(dst [][]complex128, lanes [][]complex128) [][]complex128 {
	for len(b.ids) < len(lanes) {
		b.ids = append(b.ids, len(b.ids))
	}
	return b.ProcessLanesInto(dst, b.ids[:len(lanes)], lanes)
}

// ProcessLanesInto runs one packet's antenna frames through the complete
// front end in lock-step, frame k on lane ids[k], and writes lane ids[k]'s
// 20 MHz baseband into dst[k]'s backing array (grown if its capacity is
// short, reused otherwise). It returns dst resliced to the frame count,
// itself grown when shorter. The outputs belong to the caller, so two
// destinations can alternate: one packet's basebands stay valid while the
// next packet runs into the other. All frames must have equal length; they
// are only read, so lanes may share one slice. Lane ids[k]'s output is
// bit-identical to the sequential chain's Reset + Process on the lane's
// configuration carrying the same packet history.
func (b *BatchReceiver) ProcessLanesInto(dst [][]complex128, ids []int, src [][]complex128) [][]complex128 {
	return b.run(dst, ids, src, true, true)
}

// toFilter runs one packet's antenna frames from the antenna up to the
// channel-select filter — each lane's LNA, the mixers and the DC block —
// frame k on lane ids[k], and writes lane ids[k]'s full-rate waveform into
// dst[k] (grown if its capacity is short, reused otherwise). It returns dst
// resliced to the frame count. All frames must have equal length; dst[k]
// may share its backing array with src[k], since every block of every frame
// is read before any of it is written. The waveform is the source
// ProcessFromFilterInto takes. The noise and LO streams and the DC block
// continue where the last call left them: it serves Receiver.ProcessToFilter,
// whose calls stream one packet.
func (b *BatchReceiver) toFilter(dst [][]complex128, ids []int, src [][]complex128) [][]complex128 {
	dst, n := b.begin(dst, ids, src, 1)
	if len(ids) == 0 {
		return dst
	}
	for k := range dst {
		dst[k] = dst[k][:n]
	}
	for s := 0; s < n; s += laneBlock {
		e := min(s+laneBlock, n)
		xr, xi := b.frontBlock(src, s, e)
		for k := range dst {
			kernels.Interleave(dst[k][s:e], xr[k], xi[k])
		}
	}
	return dst
}

// restart starts a packet at the antenna. One restart for the batch: every
// fixed-seed stream restarts once and its draws are shared across lanes
// (each lane's own restart would produce the identical sequence), and the
// shared DC block clears its delays. The per-lane states are resetLanes'.
func (b *BatchReceiver) restart() {
	b.rx.lna.Reset()
	b.rx.mixer1.Reset()
	b.rx.mixer2.Reset()
	if b.dcb != nil {
		b.dcb.Reset()
	}
}

// frontBlock runs samples [s, e) of the call's antenna frames from the LNA
// through the second mixer and returns the lanes' blocks as planes. The
// segment runs planar: the LNA writes the planes, the noise adds, LO mixing
// and DC-block biquads all work them in place. The conversions are pure
// load/store, so they change no arithmetic.
func (b *BatchReceiver) frontBlock(src [][]complex128, s, e int) (xr, xi [][]float64) {
	L, m := len(src), e-s
	xr, xi, in := b.xr[:L], b.xi[:L], b.view[:L]
	for k := range xr {
		xr[k], xi[k] = xr[k][:m], xi[k][:m]
		in[k] = src[k][s:e]
	}
	b.rx.lna.processBatch(xr, xi, in, b.amps, b.nre, b.nim)
	prefillLOPair(b.rx.mixer1, b.rx.mixer2, m)
	b.rx.mixer1.processBatchPlanar(xr, xi, b.nre, b.nim)
	if b.dcb != nil {
		b.dcb.ProcessPlanar(xr, xi)
	}
	b.rx.mixer2.processBatchPlanar(xr, xi, b.nre, b.nim)
	return xr, xi
}

// ProcessFromFilterInto runs one packet from the pre-filter waveform
// (Receiver.ProcessToFilter's output) on: src[k] is lane ids[k]'s waveform,
// streamed through the lane's own channel-select filter, the AGC, ADC and
// decimation. The sources must have equal length; they are only read, so
// lanes may share one slice. Outputs go to dst as with ProcessLanesInto. Lane ids[k]'s output is
// bit-identical to the sequential chain's Reset + ProcessFromFilter on the
// lane's configuration carrying the same packet history. The waveform has
// passed an LNA already, so no lane may have an LNA of its own.
func (b *BatchReceiver) ProcessFromFilterInto(dst [][]complex128, ids []int, src [][]complex128) [][]complex128 {
	if b.ownLNA {
		panic("rf: pre-filter entry on lanes with their own LNA")
	}
	return b.run(dst, ids, src, false, true)
}

// run streams the call's lanes from the antenna (front) or from the
// pre-filter waveform into dst. A call that starts a packet first restarts
// the streams it runs — the antenna's noise and LO streams and DC block
// when front is set, and each lane's filter, AGC, clip count and decimation
// phase; otherwise every lane continues where its last call ended.
func (b *BatchReceiver) run(dst [][]complex128, ids []int, src [][]complex128, front, start bool) [][]complex128 {
	dst, _ = b.begin(dst, ids, src, b.rx.cfg.Oversample)
	if len(ids) == 0 {
		return dst
	}
	if start {
		if front {
			b.restart()
		}
		b.resetLanes(ids)
	}
	b.stream(dst, ids, src, front)
	return dst
}

// resetLanes starts a packet on lanes ids: each lane's own filter, AGC
// gain and estimator, clip count and decimation phase restart; the AGC
// resync counter carries (see kernels.AGCResyncInterval).
func (b *BatchReceiver) resetLanes(ids []int) {
	for _, id := range ids {
		ln := b.lane(id)
		b.chs.ResetLane(id)
		b.rx.agc.resetLane(&ln.agc)
		ln.clip, ln.phase = 0, 0
	}
}

// lane returns lane id's state, adding the lanes up to id with rx's
// configuration.
func (b *BatchReceiver) lane(id int) *laneState {
	for len(b.lanes) <= id {
		b.lanes = append(b.lanes, laneState{lna: b.rx.lna})
	}
	return &b.lanes[id]
}

// begin checks one call's lanes, sizes dst for factor-fold decimated output
// and the per-call scratch, and returns dst and the common frame length.
func (b *BatchReceiver) begin(dst [][]complex128, ids []int, src [][]complex128, factor int) ([][]complex128, int) {
	L := len(ids)
	if len(src) != L {
		panic(fmt.Sprintf("rf: %d lanes given %d frames", L, len(src)))
	}
	if L == 0 {
		return dst[:0], 0
	}
	n := len(src[0])
	for k := 1; k < L; k++ {
		if len(src[k]) != n {
			panic(fmt.Sprintf("rf: lane frame %d length %d != frame 0 length %d", k, len(src[k]), n))
		}
	}
	if len(dst) < L {
		dst = append(dst, make([][]complex128, L-len(dst))...)
	}
	dst = dst[:L]
	out := (n + factor - 1) / factor // samples each lane keeps
	for k := range dst {
		if cap(dst[k]) < out {
			dst[k] = make([]complex128, 0, out)
		}
	}
	b.amps = b.amps[:0]
	for _, id := range ids {
		b.amps = append(b.amps, b.lane(id).lna)
	}
	if len(b.st) < L {
		b.st = make([]kernels.AGCLane, L)
	}
	if len(b.view) < L {
		b.view = make([][]complex128, L)
	}
	for len(b.blk) < L {
		b.blk = append(b.blk, make([]complex128, laneBlock))
		b.xr = append(b.xr, make([]float64, laneBlock))
		b.xi = append(b.xi, make([]float64, laneBlock))
	}
	return dst, n
}

// stream runs the call's lanes block by block, continuing each lane's
// state: src[k] becomes lane ids[k]'s planar block — through frontBlock when
// front is set, split into planes otherwise — then runs through the lane's
// filter, the lane-interleaved AGC loop, and ADC and decimation into
// dst[k].
//
//lint:hotpath lane pipeline: per-block front end, filter, AGC, ADC and decimation across lanes
func (b *BatchReceiver) stream(dst [][]complex128, ids []int, src [][]complex128, front bool) {
	L, n := len(ids), len(src[0])
	agc, adc, factor := b.rx.agc, b.rx.adc, b.rx.cfg.Oversample
	st := b.st[:L]
	for k, id := range ids {
		st[k] = b.lanes[id].agc
		dst[k] = dst[k][:0]
	}
	view := b.view[:L]
	for s := 0; s < n; s += laneBlock {
		e := min(s+laneBlock, n)
		var xr, xi [][]float64
		if front {
			xr, xi = b.frontBlock(src, s, e)
		} else {
			xr, xi = b.xr[:L], b.xi[:L]
			for k := range xr {
				xr[k], xi[k] = xr[k][:e-s], xi[k][:e-s]
				kernels.Deinterleave(xr[k], xi[k], src[k][s:e])
			}
		}
		b.chs.ProcessLanes(xr, xi, ids)
		for k := range xr {
			view[k] = b.blk[k][:e-s]
			kernels.Interleave(view[k], xr[k], xi[k])
		}
		kernels.AGCLanes(view, st, &agc.law)
		for k, id := range ids {
			// The decimator keeps every factor-th sample of the packet from
			// sample 0 on; first is the block offset of the first kept one.
			ln := &b.lanes[id]
			first := (factor - (ln.phase+s)%factor) % factor
			var clips int
			dst[k], clips = adc.convertKeep(dst[k], view[k], first, factor)
			ln.clip += clips
		}
	}
	for k, id := range ids {
		ln := &b.lanes[id]
		ln.agc = st[k]
		ln.phase = (ln.phase + n) % factor
	}
}
