package rf

import (
	"fmt"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
	"wlansim/internal/units"
)

// The batched front end runs B equal-length antenna frames — equal-config
// sweep points that differ only in their additive channel noise — through
// the behavioral receiver in lock-step. Exactness is the contract: lane b is
// bit-identical to Reset + Process on the sequential receiver, which the
// differential front-end test pins frame for frame.
//
// The batch wins come from three places, none of which changes a bit:
//
//   - Every internal stochastic stream (amplifier and mixer noise, LO phase
//     noise) restarts from its fixed per-block seed on Reset, so all B lanes
//     would draw the identical sequences; the batch restarts once and
//     materializes each stream into a plane shared across lanes (the
//     randutil batched-draw property).
//   - The channel filters' biquad recurrences are latency-bound; the batch
//     runs them lane-interleaved through kernels.BiquadBatch.
//   - The mixer's planar frame pass amortizes its LO planes across lanes
//     via kernels.MixApplyLOBatch.

// agcBatchState carries the per-lane AGC loop state. Only resync survives
// across packets (AGC.Reset deliberately preserves it; see
// agcResyncInterval); resetLanes reinitializes the gain and estimator lanes
// from the Reset values at the top of every packet, and stepLanes carries
// all four across the calls of one packet.
type agcBatchState struct {
	resync  []int
	gainLin []float64
	gainDB  []float64
	est     []float64
}

// grow sizes the state for lanes lanes, keeping the carried resync counters.
func (st *agcBatchState) grow(lanes int) {
	if len(st.resync) >= lanes {
		return
	}
	resync := make([]int, lanes)
	copy(resync, st.resync)
	st.resync = resync
	st.gainLin = make([]float64, lanes)
	st.gainDB = make([]float64, lanes)
	st.est = make([]float64, lanes)
}

// resetLanes performs AGC.Reset on the first L lanes of st: the same three
// assignments, fanned across the state lanes; resync is carried from the
// previous packet.
func (a *AGC) resetLanes(st *agcBatchState, L int) {
	g0 := clamp(a.cfg.InitialGainDB, a.cfg.MinGainDB, a.cfg.MaxGainDB)
	lin0 := units.DBToVoltageGain(g0)
	est0 := units.DBmToWatts(a.cfg.TargetDBm)
	for l := 0; l < L; l++ {
		st.gainDB[l] = g0
		st.gainLin[l] = lin0
		st.est[l] = est0
	}
}

// stepLanes runs the AGC loop over the equal-length lanes lane-interleaved:
// sample i of every lane is stepped before sample i+1 of any. Lane state
// lives in st and lanes never mix, so lane l performs exactly the scalar
// Process arithmetic in exactly its order — the interleave only overlaps the
// lanes' serial est -> log -> step -> exp -> gain dependency chains, which
// bound the scalar loop's throughput. The state carries across calls, so a
// packet may be stepped whole or in consecutive blocks with identical
// output; call resetLanes at the top of each packet.
//
//lint:hotpath AGC lane loop: per-sample gain recurrence across lanes
func (a *AGC) stepLanes(lanes [][]complex128, st *agcBatchState) {
	L := len(lanes)
	if L == 0 {
		return
	}
	gainLin, gainDB, est := st.gainLin[:L], st.gainDB[:L], st.est[:L]
	resync := st.resync[:L]
	if a.cfg.Freeze {
		// Frozen gain has no recurrence: Process's frozen pass per lane.
		for l, lane := range lanes {
			g := gainLin[l]
			for i, v := range lane {
				lane[i] = complex(g*real(v), g*imag(v))
			}
		}
		return
	}
	n := len(lanes[0])
	var (
		alpha   = a.alpha
		invT    = a.invTarget
		uAtt    = a.uAttack
		uRel    = a.uRelease
		attack  = a.attack
		release = a.release
		minG    = a.cfg.MinGainDB
		maxG    = a.cfg.MaxGainDB
	)
	for i := 0; i < n; i++ {
		for l := 0; l < L; l++ {
			v := lanes[l][i]
			gl := gainLin[l]
			yr := gl * real(v)
			yi := gl * imag(v)
			lanes[l][i] = complex(yr, yi)
			p := yr*yr + yi*yi
			e := est[l] + alpha*(p-est[l])
			est[l] = e
			if e > 0 {
				u := e * invT
				var step float64
				switch {
				case u >= uAtt:
					step = -attackClampDB
				case u <= uRel:
					step = releaseClampDB
				default:
					var errDB float64
					if u > 0.5 && u < 2 {
						errDB = -tenOverLn10 * lnNear1(u)
					} else {
						errDB = -tenOverLn10 * lnWide(u)
					}
					if errDB < 0 {
						step = attack * errDB
					} else {
						step = release * errDB
					}
				}
				g := clamp(gainDB[l]+step, minG, maxG)
				//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
				if g != gainDB[l] {
					d := g - gainDB[l]
					gainDB[l] = g
					resync[l]++
					if resync[l] >= agcResyncInterval || d > 2 || d < -2 {
						gainLin[l] = units.DBToVoltageGain(g)
						resync[l] = 0
					} else {
						gainLin[l] = gl * expSmall(d*lnTenOver20)
					}
				}
			}
		}
	}
}

// processBatch amplifies B lanes, drawing the shared noise stream once and
// applying the exact per-sample nonlinearity per lane.
func (a *Amplifier) processBatch(lanes [][]complex128, nre, nim []float64) {
	if a.noise == nil {
		for _, lane := range lanes {
			for i, v := range lane {
				lane[i] = a.amplify(v)
			}
		}
		return
	}
	n := len(lanes[0])
	nre, nim = nre[:n], nim[:n]
	a.noise.FillNormPairs(nre, nim)
	kernels.ScalePlane(nre, a.nsig)
	kernels.ScalePlane(nim, a.nsig)
	for _, lane := range lanes {
		for i, v := range lane {
			lane[i] = a.amplify(v + complex(nre[i], nim[i]))
		}
	}
}

// processBatchPlanar mixes B planar lanes in place: one materialized noise
// plane added component-wise (the same float adds the scalar path's complex
// add performs), one LO trajectory fill, then the planar batch kernel over
// all lanes.
func (m *Mixer) processBatchPlanar(xr, xi [][]float64, nre, nim []float64) {
	n := len(xr[0])
	if n == 0 {
		return
	}
	L := len(xr)
	if m.noise != nil {
		nre, nim = nre[:n], nim[:n]
		m.noise.FillNormPairs(nre, nim)
		kernels.ScalePlane(nre, m.nsig)
		kernels.ScalePlane(nim, m.nsig)
		for l := 0; l < L; l++ {
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
		kernels.MixApplyLOBatch(xr, xi, m.lov.Re, m.lov.Im,
			mur, mui, nur, nui, m.g, dcr, dci)
	} else {
		kernels.MixApplyBatch(xr, xi, mur, mui, nur, nui, m.g, dcr, dci)
	}
}

// BatchReceiver wraps a Receiver with lane-parallel scratch so equal-config
// antenna frames can run the whole front end in lock-step. Each Process
// call is one packet across B lanes: it resets the underlying receiver
// (restarting every fixed-seed stochastic stream once for the batch) and
// produces per-lane baseband owned by the batch receiver.
type BatchReceiver struct {
	rx *Receiver

	nre, nim []float64   // shared per-batch noise plane scratch
	xr, xi   [][]float64 // per-lane planar scratch for the mixer pass
	dcb, chs *dsp.IIRBatch
	agc      agcBatchState
	outs     [][]complex128 // Process's per-lane decimator outputs, reused
}

// NewBatchReceiver builds the lane-parallel driver for rx. The receiver
// remains usable sequentially; the batch driver owns all per-lane state.
func NewBatchReceiver(rx *Receiver) *BatchReceiver {
	b := &BatchReceiver{rx: rx}
	if rx.dcBlock != nil {
		b.dcb = dsp.NewIIRBatch(rx.dcBlock.iir)
	}
	if rx.chanSel != nil {
		b.chs = dsp.NewIIRBatch(rx.chanSel.iir)
	}
	return b
}

func (b *BatchReceiver) grow(lanes, n int) {
	if cap(b.nre) < n {
		b.nre = make([]float64, n)
		b.nim = make([]float64, n)
	}
	b.nre, b.nim = b.nre[:n], b.nim[:n]
	if len(b.xr) < lanes {
		xr := make([][]float64, lanes)
		xi := make([][]float64, lanes)
		copy(xr, b.xr)
		copy(xi, b.xi)
		b.xr, b.xi = xr, xi
	}
	b.agc.grow(lanes)
	for l := 0; l < lanes; l++ {
		if cap(b.xr[l]) < n {
			b.xr[l] = make([]float64, n)
			b.xi[l] = make([]float64, n)
		}
		b.xr[l] = b.xr[l][:n]
		b.xi[l] = b.xi[l][:n]
	}
}

// Process runs one packet's B antenna frames through the complete front end
// in lock-step and returns the per-lane 20 MHz baseband. All frames must
// have equal length. Inputs are modified in place up to the decimation
// stage; the returned slices are owned by the batch receiver (reused by the
// next call). Lane l is bit-identical to rx.Reset() followed by
// rx.Process(lanes[l]) on a sequential receiver carrying the same per-lane
// history (the AGC resync counter is the only state Reset preserves, and it
// is carried per lane here).
func (b *BatchReceiver) Process(lanes [][]complex128) [][]complex128 {
	b.outs = b.ProcessInto(b.outs, lanes)
	return b.outs
}

// ProcessInto is Process writing lane l's baseband into dst[l]'s backing
// array (grown if its capacity is short, reused otherwise) and returning
// dst resliced to the lane count, itself grown when shorter. The outputs
// belong to the caller, so two destinations can alternate: one packet's
// basebands stay valid while the next packet runs into the other.
func (b *BatchReceiver) ProcessInto(dst [][]complex128, lanes [][]complex128) [][]complex128 {
	L := len(lanes)
	if L == 0 {
		return dst[:0]
	}
	if len(dst) < L {
		dst = append(dst, make([][]complex128, L-len(dst))...)
	}
	dst = dst[:L]
	n := len(lanes[0])
	for l := 1; l < L; l++ {
		if len(lanes[l]) != n {
			panic(fmt.Sprintf("rf: batch lane %d length %d != lane 0 length %d", l, len(lanes[l]), n))
		}
	}
	b.grow(L, n)

	// One Reset for the batch: every fixed-seed stream restarts once and its
	// draws are shared across lanes (each lane's own restart would produce
	// the identical sequence). The per-lane filter and AGC states live in
	// the batch driver and are reset/carried below.
	b.rx.Reset()
	if b.dcb != nil {
		b.dcb.Reset()
	}
	if b.chs != nil {
		b.chs.Reset()
	}

	b.rx.lna.processBatch(lanes, b.nre, b.nim)
	prefillLOPair(b.rx.mixer1, b.rx.mixer2, n)

	// The mixer/filter segment runs planar end to end: one conversion in,
	// one out, with the noise adds, LO mixing, and biquad cascades all
	// working the same planes. Conversions are pure load/store, so fusing
	// them changes no arithmetic.
	xr, xi := b.xr[:L], b.xi[:L]
	for l, lane := range lanes {
		kernels.Deinterleave(xr[l], xi[l], lane)
	}
	b.rx.mixer1.processBatchPlanar(xr, xi, b.nre, b.nim)
	if b.dcb != nil {
		b.dcb.ProcessPlanar(xr, xi)
	}
	b.rx.mixer2.processBatchPlanar(xr, xi, b.nre, b.nim)
	if b.chs != nil {
		b.chs.ProcessPlanar(xr, xi)
	}
	for l, lane := range lanes {
		kernels.Interleave(lane, xr[l], xi[l])
	}

	b.rx.agc.resetLanes(&b.agc, L)
	b.rx.agc.stepLanes(lanes, &b.agc)
	for _, lane := range lanes {
		b.rx.adc.Process(lane)
	}
	for l, lane := range lanes {
		b.rx.decim.Reset()
		dst[l] = b.rx.decim.ProcessInto(dst[l][:0], lane)
	}
	return dst
}
