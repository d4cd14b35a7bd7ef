package rxdsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
	"wlansim/internal/phy"
	"wlansim/internal/units"
)

// The classes of a failed receive. Every error Receive and Group.Receive
// return for a packet that did not get through to its DATA field matches
// one of them under errors.Is, and keeps its own text.
var (
	// ErrNoSync: no packet was detected, or its preamble could not be
	// timed or lay past the end of the signal.
	ErrNoSync = errors.New("rxdsp: no synchronization")
	// ErrSignal: the SIGNAL field failed its parity or announced an
	// invalid rate or length.
	ErrSignal = errors.New("rxdsp: SIGNAL field failed")
	// ErrTruncated: the DATA field the SIGNAL field announced runs past the
	// end of the signal.
	ErrTruncated = errors.New("rxdsp: DATA field truncated")
)

// classError is a receive failure of one class: its text is the failure's
// own, and errors.Is matches both the class and the failure.
type classError struct{ class, err error }

func (e *classError) Error() string { return e.err.Error() }

//lint:ignore testonly errors.Is and errors.As call it through the error chain
func (e *classError) Unwrap() []error { return []error{e.class, e.err} }

// Group runs the receive of a lane group: one synchronizing receiver per
// lane, each on its own baseband, with the per-sample sync passes of every
// lane run together. The lanes' DC notches run as one lock-step
// dsp.IIRBatch over the group's planes; the coarse and fine CFO rotations
// run lane-interleaved and stop at each lane's last read sample; fine timing
// computes each distinct lag correlation once. Each lane's result is
// bit-identical to its receiver's Receive on its baseband alone: every pass
// keeps each lane's operation order, and lanes never mix. The group holds
// one set of sync planes for all its lanes; a Group must not be shared
// between goroutines.
type Group struct {
	notch  *dsp.IIRBatch
	re, im [][]float64 // the notch's planes: one block per lane
	vre    [][]float64 // the running lanes' views of one notch block
	vim    [][]float64
	ids    []int
	lanes  []laneRx
	jobs   []rotJob         // the lane stretches of one rotation pass
	rs     kernels.Rotators // one quad's rotations
	pad    []complex128     // idle lanes' samples
	timing timingScratch
	pkts   []*PacketResult
	errs   []error
}

// laneRx is one lane's progress through a group receive.
type laneRx struct {
	r   *Receiver
	err error
	d   DetectResult
	// work is the lane's notched signal from its detection point on,
	// rotated in place: the coarse rotation has reached cEnd and the fine
	// one fEnd (fEnd <= cEnd; fine is set once the fine CFO is known).
	work         []complex128
	coarse, fine rotator
	cEnd, fEnd   int
	to           int // the current rotation pass's target
	hasFine      bool
	fineCFO      float64
	t1           int
	linkSNR      float64
	mmseReg      float64
	sf           phy.SignalField
	nSym         int
}

// NewGroup returns an empty group; its scratch grows to the widest group
// and longest signal it receives.
func NewGroup() *Group { return &Group{} }

// Receive synchronizes to and equalizes the first packet at or after index
// from in lane k's 20 MHz baseband xs[k] on lane k's receiver rxs[k], for
// every lane, and returns per lane the result and the error rxs[k].Receive
// (xs[k], from) would have returned. The returned slices are the group's
// scratch, valid until its next Receive; the results follow their
// receivers' ReuseBuffers and DeferDataDecode settings.
func (g *Group) Receive(rxs []*Receiver, xs [][]complex128, from int) ([]*PacketResult, []error) {
	L := len(rxs)
	g.pkts, g.errs, g.lanes = grow(g.pkts, L), grow(g.errs, L), grow(g.lanes, L)
	if from < 0 {
		from = 0
	}
	for k, r := range rxs {
		g.lanes[k] = laneRx{r: r}
		if from >= len(xs[k]) {
			g.lanes[k].err = fmt.Errorf("rxdsp: start index %d beyond signal", from)
		}
	}
	if err := g.notchLanes(xs, from); err != nil {
		for k := range g.lanes {
			g.lanes[k].err = err
		}
	}

	// Detection on each lane's notched signal, then the coarse CFO
	// correction from the detection point onward, as far as fine timing and
	// the fine CFO estimate read.
	for k := range g.lanes {
		ls := &g.lanes[k]
		if ls.err != nil {
			continue
		}
		det := ls.r.Detector
		if det == nil {
			det = NewDetector()
		}
		d, err := det.Detect(ls.r.buf, 0)
		if err != nil {
			ls.err = &classError{ErrNoSync, err}
			continue
		}
		ls.work = ls.r.buf[d.StartIndex:]
		d.StartIndex += from
		ls.d = d
		ls.coarse = newRotator(-d.CoarseCFO)
	}
	g.rotate(func(*laneRx) int { return timingStart + timingLen + 128 })

	// Fine timing and the fine CFO estimate, then both rotations through
	// the SIGNAL symbol.
	for k := range g.lanes {
		ls := &g.lanes[k]
		if ls.err != nil {
			continue
		}
		t1, err := g.timing.fineTiming(ls.work, timingStart, timingLen)
		if err != nil {
			ls.err = &classError{ErrNoSync, err}
			continue
		}
		fine, err := FineCFO(ls.work, t1)
		if err != nil {
			ls.err = &classError{ErrNoSync, err}
			continue
		}
		ls.t1, ls.fineCFO = t1, fine
		ls.fine, ls.hasFine = newRotator(-fine), true
	}
	g.rotate(func(ls *laneRx) int { return ls.t1 + 128 + phy.SymbolLen })

	// Channel estimate and SIGNAL decode, then both rotations through the
	// DATA field the SIGNAL field announces.
	for k := range g.lanes {
		if ls := &g.lanes[k]; ls.err == nil {
			ls.err = ls.signal()
		}
	}
	g.rotate(func(ls *laneRx) int { return ls.dataStart() + ls.nSym*phy.SymbolLen })

	for k := range g.lanes {
		ls := &g.lanes[k]
		if ls.err == nil {
			g.pkts[k], ls.err = ls.data()
		}
		if ls.err != nil {
			g.pkts[k] = nil
		}
		g.errs[k] = ls.err
		ls.work = nil
	}
	return g.pkts, g.errs
}

// timingStart and timingLen are the fine-timing search window: the first
// long training symbol nominally starts 192 samples after the short
// preamble start, and the detector's plateau start can be tens of samples
// off, so the search spans a generous window around the nominal position.
const (
	timingStart = phy.ShortPreambleLen + 32 - 80
	timingLen   = 160
)

// dcNotchCutoff is the digital DC-removal corner as a fraction of the
// sample rate (40 kHz at 20 MHz — far below the first subcarrier).
const dcNotchCutoff = 0.002

// notchChunk is the notch's block length: the lanes run lock-step one
// block at a time, so the group's planes hold one block per lane.
const notchChunk = 256

// notchLanes runs the digital DC-offset notch over every running lane's
// signal from index from into the lane receiver's buffer — the second
// mixer's self-mixing DC offset otherwise autocorrelates perfectly at the
// short-preamble lag and fakes a detection plateau. The lanes run lock-step
// through one dsp.IIRBatch, block by block: each block is copied into the
// group's planes, notched and written back interleaved. A lane shorter than
// the others drops out after its last sample; the notch carries every
// lane's state from block to block.
func (g *Group) notchLanes(xs [][]complex128, from int) error {
	if g.notch == nil {
		notch, err := dsp.DesignDCBlock(dcNotchCutoff)
		if err != nil {
			return err
		}
		g.notch = dsp.NewIIRBatch(notch)
	}
	L := len(g.lanes)
	g.re, g.im = grow(g.re, L), grow(g.im, L)
	for k := range g.lanes {
		if g.lanes[k].err == nil {
			r := g.lanes[k].r
			r.buf = grow(r.buf, len(xs[k])-from)
		}
	}
	g.notch.Reset()
	for pos := 0; ; {
		g.ids, g.vre, g.vim = g.ids[:0], g.vre[:0], g.vim[:0]
		m := notchChunk
		for k := range g.lanes {
			if n := len(xs[k]) - from - pos; g.lanes[k].err == nil && n > 0 {
				g.ids = append(g.ids, k)
				m = min(m, n)
			}
		}
		if len(g.ids) == 0 {
			return nil
		}
		for j, k := range g.ids {
			g.re[j], g.im[j] = grow(g.re[j], notchChunk), grow(g.im[j], notchChunk)
			g.vre, g.vim = append(g.vre, g.re[j][:m]), append(g.vim, g.im[j][:m])
			kernels.Deinterleave(g.vre[j], g.vim[j], xs[k][from+pos:from+pos+m])
		}
		g.notch.ProcessLanes(g.vre, g.vim, g.ids)
		for j, k := range g.ids {
			kernels.Interleave(g.lanes[k].r.buf[pos:pos+m], g.vre[j], g.vim[j])
		}
		pos += m
	}
}

// rotate advances every running lane's rotations to target(lane), clamped
// to its work: the fine rotation (once set) over what the coarse one has
// already reached, then both over the rest, so no sample is rotated past
// its lane's last read.
func (g *Group) rotate(target func(*laneRx) int) {
	g.jobs = g.jobs[:0]
	both := false
	for k := range g.lanes {
		ls := &g.lanes[k]
		if ls.err != nil {
			continue
		}
		ls.to = min(target(ls), len(ls.work))
		if n := min(ls.cEnd, ls.to); ls.hasFine && ls.fEnd < n {
			g.jobs = append(g.jobs, rotJob{x: ls.work[ls.fEnd:n], a: &ls.fine})
			ls.fEnd = n
		}
		both = ls.hasFine
	}
	g.runJobs(false)
	g.jobs = g.jobs[:0]
	for k := range g.lanes {
		ls := &g.lanes[k]
		if ls.err != nil || ls.to <= ls.cEnd {
			continue
		}
		j := rotJob{x: ls.work[ls.cEnd:ls.to], a: &ls.coarse}
		if both {
			j.b = &ls.fine
		}
		g.jobs = append(g.jobs, j)
		ls.mixed(ls.to)
	}
	g.runJobs(both)
}

// rotJob is one lane's stretch of a rotation pass: x by rotator a, then by
// b when the pass runs both rotations.
type rotJob struct {
	x    []complex128
	a, b *rotator
}

// rotChunk is the most samples one kernels.RotateLanes call of runJobs
// covers, so the idle lanes' pad stays one small block.
const rotChunk = 128

// runJobs runs the jobs through kernels.RotateLanes four lanes at a time,
// lane-interleaved: each call covers the quad's shortest remaining stretch
// (at most rotChunk samples), and a lane already done rides along as an
// idle lane (unit state and step) on the group's pad. A state that leaves
// the oscillator's screening band ends a call; it is renormalized exactly
// as dsp.Oscillator does, and the lanes go on.
func (g *Group) runJobs(both bool) {
	for q := 0; q < len(g.jobs); q += 4 {
		quad := g.jobs[q:min(q+4, len(g.jobs))]
		for {
			m, live := rotChunk, false
			for _, j := range quad {
				if len(j.x) > 0 {
					m, live = min(m, len(j.x)), true
				}
			}
			if !live {
				break
			}
			g.pad = grow(g.pad, rotChunk)
			var xs [4][]complex128
			for k := range xs {
				xs[k] = g.pad[:m]
				a, b := &unitRotator, &unitRotator
				if k < len(quad) && len(quad[k].x) > 0 {
					xs[k], a = quad[k].x[:m], quad[k].a
					if both {
						b = quad[k].b
					}
				}
				a.store(&g.rs, kernels.RotCoarse, k)
				b.store(&g.rs, kernels.RotFine, k)
			}
			for done := 0; done < m; {
				done += kernels.RotateLanes(xs[0][done:], xs[1][done:], xs[2][done:], xs[3][done:], &g.rs, both)
				for k := range xs {
					renormAt(&g.rs, kernels.RotCoarse, k)
					renormAt(&g.rs, kernels.RotFine, k)
				}
			}
			for k := range quad {
				if len(quad[k].x) > 0 {
					quad[k].a.load(&g.rs, kernels.RotCoarse, k)
					if both {
						quad[k].b.load(&g.rs, kernels.RotFine, k)
					}
					quad[k].x = quad[k].x[m:]
				}
			}
		}
	}
}

// mixed records that the lane's rotations have reached n.
func (ls *laneRx) mixed(n int) {
	ls.cEnd = n
	if ls.hasFine {
		ls.fEnd = n
	}
}

// signal estimates the channel from the long training symbols and decodes
// the SIGNAL field, which sets the DATA field's shape.
func (ls *laneRx) signal() error {
	r := ls.r
	if err := r.ce.estimateInto(&r.est, ls.work, ls.t1); err != nil {
		return &classError{ErrNoSync, err}
	}
	linkSNR, err := EstimationSNR(ls.work, ls.t1)
	if err != nil {
		return &classError{ErrNoSync, err}
	}
	ls.linkSNR = linkSNR
	// SIGNAL symbol follows the long preamble: CP at t1+128, data at +144.
	sigStart := ls.t1 + 128
	if sigStart+phy.SymbolLen > len(ls.work) {
		return &classError{ErrNoSync, fmt.Errorf("rxdsp: truncated before SIGNAL symbol")}
	}
	if r.MMSE {
		ls.mmseReg = units.DBToLinear(-linkSNR)
	}
	if r.sigData == nil {
		r.sigData = make([]complex128, phy.NumDataCarriers)
		r.sigCSI = make([]float64, phy.NumDataCarriers)
	}
	sigSpec, err := phy.DemodulateSymbolInto(r.sigSpec, ls.work[sigStart:sigStart+phy.SymbolLen])
	if err != nil {
		return err
	}
	r.sigSpec = sigSpec
	if err := r.eq.equalize(r.sigData, r.sigCSI, sigSpec, &r.est, 0, ls.mmseReg); err != nil {
		return err
	}
	if r.dec == nil {
		r.dec = phy.NewPacketDecoder()
	}
	sf, err := r.dec.DecodeSignal(r.sigData)
	if err != nil {
		return &classError{ErrSignal, fmt.Errorf("rxdsp: SIGNAL decode: %w", err)}
	}
	ls.sf = sf
	nBits := phy.ServiceBits + sf.Length*8 + phy.TailBits
	ls.nSym = (nBits + sf.Mode.NDBPS() - 1) / sf.Mode.NDBPS()
	if ls.dataStart()+ls.nSym*phy.SymbolLen > len(ls.work) {
		return &classError{ErrTruncated, fmt.Errorf("rxdsp: truncated DATA field (%d symbols announced)", ls.nSym)}
	}
	return nil
}

// dataStart is the first sample of the DATA field within work.
func (ls *laneRx) dataStart() int { return ls.t1 + 128 + phy.SymbolLen }

// data equalizes the DATA field and, unless the receiver defers it,
// decodes it.
func (ls *laneRx) data() (*PacketResult, error) {
	r := ls.r
	dataStart := ls.dataStart()
	carriers, csis, err := r.equalizeData(ls.work, dataStart, ls.nSym, &r.est, ls.mmseReg, r.ReuseBuffers)
	if err != nil {
		return nil, err
	}
	var csiArg [][]float64
	if !r.DisableCSI {
		csiArg = csis
	}
	var psdu []byte
	var deferredCSI [][]float64
	switch {
	case r.HardDecisions:
		psdu, err = r.dec.DecodeDataCarriersHard(carriers, ls.sf.Mode, ls.sf.Length)
	case r.DeferDataDecode:
		// The bit-level decode happens later, across packets, in
		// DecodeDeferredBatch; hand it the CSI weights alongside the
		// carriers.
		deferredCSI = csiArg
	default:
		psdu, err = r.dec.DecodeDataCarriers(carriers, csiArg, ls.sf.Mode, ls.sf.Length)
	}
	if err != nil {
		return nil, err
	}
	out := &PacketResult{}
	if r.ReuseBuffers {
		out = &r.res
	}
	d := ls.d
	*out = PacketResult{
		PSDU:              psdu,
		Signal:            ls.sf,
		Detection:         d,
		CFO:               d.CoarseCFO + ls.fineCFO,
		T1Index:           d.StartIndex + ls.t1,
		EqualizedCarriers: carriers,
		CSI:               deferredCSI,
		LinkSNRdB:         ls.linkSNR,
		EndIndex:          d.StartIndex + dataStart + ls.nSym*phy.SymbolLen,
	}
	return out, nil
}

// rotator is dsp.Oscillator's recurrence: the same step and start, and,
// through kernels.RotateLanes and renormAt, the same product per sample
// and the same renormalization, bit for bit.
type rotator struct{ step, state complex128 }

// unitRotator is an idle lane's rotation: state and step exactly 1, so its
// products are exact and its state never drifts.
var unitRotator = rotator{step: 1, state: 1}

// newRotator starts a rotator at frequency nu (cycles per sample) and
// phase 0, as dsp.NewOscillator(nu, 0).
func newRotator(nu float64) rotator {
	return rotator{step: cmplx.Exp(complex(0, 2*math.Pi*nu)), state: cmplx.Exp(0)}
}

// store writes the rotator into lane k of rs's rotation rows base.
func (o *rotator) store(rs *kernels.Rotators, base, k int) {
	rs[base+kernels.RotRe][k], rs[base+kernels.RotIm][k] = real(o.state), imag(o.state)
	rs[base+kernels.RotStepRe][k], rs[base+kernels.RotStepIm][k] = real(o.step), imag(o.step)
}

// load reads the rotator's state back from lane k of rs's rows base.
func (o *rotator) load(rs *kernels.Rotators, base, k int) {
	o.state = complex(rs[base+kernels.RotRe][k], rs[base+kernels.RotIm][k])
}

// renormAt applies dsp.Oscillator's drift correction to lane k's state of
// rows base: on the rare state whose squared magnitude has left the
// screening band, the exact magnitude test and the division.
func renormAt(rs *kernels.Rotators, base, k int) {
	re, im := &rs[base+kernels.RotRe][k], &rs[base+kernels.RotIm][k]
	if n := *re**re + *im**im; !(n < kernels.RotDriftLo || n > kernels.RotDriftHi) {
		return
	}
	s := complex(*re, *im)
	if m := cmplx.Abs(s); m < 0.999999 || m > 1.000001 {
		s /= complex(m, 0)
	}
	*re, *im = real(s), imag(s)
}
