package rxdsp

import (
	"fmt"
	"math/cmplx"

	"wlansim/internal/dsp"
	"wlansim/internal/phy"
)

// ChannelEstimate holds the per-subcarrier complex channel gains derived
// from the long training symbols.
type ChannelEstimate struct {
	// H is indexed by FFT bin (64 entries); unoccupied bins are zero.
	H []complex128
}

// chanEstimator carries the FFT scratch of the long-training channel
// estimation so repeated estimates allocate nothing.
type chanEstimator struct {
	sum []complex128
	sym []complex128
}

// estimateInto computes the channel estimate from the two long training
// symbols starting at t1 within x, writing the result into est.H (grown on
// first use, reused afterwards).
//
//lint:hotpath
func (ce *chanEstimator) estimateInto(est *ChannelEstimate, x []complex128, t1 int) error {
	if t1 < 0 || t1+128 > len(x) {
		return fmt.Errorf("rxdsp: long training symbols out of range")
	}
	ref := phy.LongTrainingSpectrum()
	plan, err := dsp.PlanFor(phy.FFTSize)
	if err != nil {
		return err
	}
	if cap(ce.sum) < phy.FFTSize {
		//lint:ignore escape first-use scratch growth, reused afterwards
		ce.sum = make([]complex128, phy.FFTSize)
		//lint:ignore escape first-use scratch growth, reused afterwards
		ce.sym = make([]complex128, phy.FFTSize)
	}
	sum := ce.sum[:phy.FFTSize]
	for i := range sum {
		sum[i] = 0
	}
	for s := 0; s < 2; s++ {
		buf := ce.sym[:phy.FFTSize]
		copy(buf, x[t1+64*s:t1+64*(s+1)])
		plan.Forward(buf)
		for i := range sum {
			sum[i] += buf[i]
		}
	}
	if cap(est.H) < phy.FFTSize {
		//lint:ignore escape first-use estimate buffer growth, reused afterwards
		est.H = make([]complex128, phy.FFTSize)
	}
	h := est.H[:phy.FFTSize]
	scale := complex(sqrt52/float64(phy.FFTSize), 0)
	for i := range h {
		h[i] = 0
		if ref[i] != 0 {
			h[i] = sum[i] / 2 * scale / ref[i]
		}
	}
	est.H = h
	return nil
}

// EstimateChannel averages the two received long training symbols (64
// samples each, starting at t1 within x) and divides by the known training
// spectrum.
func EstimateChannel(x []complex128, t1 int) (*ChannelEstimate, error) {
	var ce chanEstimator
	est := &ChannelEstimate{}
	if err := ce.estimateInto(est, x, t1); err != nil {
		return nil, err
	}
	return est, nil
}

const sqrt52 = 7.211102550927978

// eqScratch carries the per-symbol buffers of the one-tap equalizer so each
// symbol is processed without allocation.
type eqScratch struct {
	pilots []complex128
	data   []complex128
}

// equalize equalizes one demodulated 64-bin OFDM spectrum by the channel
// estimate, corrects the pilot common phase error for the given symbol
// index, and writes the 48 equalized data carriers into out and their CSI
// weights (|H|^2) into csi (both of length phy.NumDataCarriers). mmseReg is
// the MMSE regularization term (noise-to-signal power ratio); 0 selects
// zero-forcing.
//
//lint:hotpath
func (q *eqScratch) equalize(out []complex128, csi []float64, spec []complex128, est *ChannelEstimate, symbolIndex int, mmseReg float64) error {
	// Pilot-aided common phase error: compare received pilots against
	// expected pilots through the channel.
	pilots, err := phy.ExtractPilotsInto(q.pilots, spec)
	if err != nil {
		return err
	}
	q.pilots = pilots
	expected := phy.ExpectedPilots(symbolIndex)
	var acc complex128
	var refE float64
	for i, c := range phy.PilotCarriers {
		bin := (c + phy.FFTSize) % phy.FFTSize
		ref := expected[i] * est.H[bin]
		acc += pilots[i] * cmplx.Conj(ref)
		refE += real(ref)*real(ref) + imag(ref)*imag(ref)
	}
	// Least-squares residual flat-channel term: corrects both the common
	// phase error and slow amplitude drift (e.g. a still-settling AGC).
	cpe := complex(1, 0)
	if refE > 0 && cmplx.Abs(acc) > 0 {
		cpe = acc / complex(refE, 0)
	}

	data, err := phy.ExtractDataInto(q.data, spec)
	if err != nil {
		return err
	}
	q.data = data
	for i, c := range phy.DataCarriers {
		bin := (c + phy.FFTSize) % phy.FFTSize
		h := est.H[bin] * cpe
		m2 := real(h)*real(h) + imag(h)*imag(h)
		if m2 < 1e-20 {
			out[i] = 0
			csi[i] = 0
			continue
		}
		if mmseReg > 0 {
			// MMSE one-tap: conj(H)/(|H|^2 + sigma^2/sigma_s^2), followed
			// by bias removal so constellation decisions stay centered.
			w := cmplx.Conj(h) / complex(m2+mmseReg, 0)
			bias := m2 / (m2 + mmseReg)
			out[i] = data[i] * w / complex(bias, 0)
		} else {
			out[i] = data[i] / h
		}
		csi[i] = m2
	}
	return nil
}

// dataScratch is the DATA-field receive scratch both receivers embed: the
// equalizer buffers, the spectra and symbol views of the batched
// demodulation, and the equalized-carrier and CSI stores.
type dataScratch struct {
	eq       eqScratch
	specBack []complex128
	specs    [][]complex128
	symViews [][]complex128
	carrBack []complex128
	carriers [][]complex128
	csiBack  []float64
	csis     [][]float64
}

// equalizeData slices the nSym DATA symbols starting at x[start],
// demodulates the whole field through one batched forward transform, and
// equalizes each spectrum (DATA symbol n carries pilot polarity index n+1).
// It returns the equalized carriers and their CSI weights. The carriers
// escape into the PacketResult, so their backing is allocated fresh per
// packet unless reuse is set; the CSI weights always alias the scratch.
func (s *dataScratch) equalizeData(x []complex128, start, nSym int, est *ChannelEstimate, mmseReg float64, reuse bool) ([][]complex128, [][]float64, error) {
	nCarr := nSym * phy.NumDataCarriers
	var carrBack []complex128
	var carriers [][]complex128
	if reuse {
		s.carrBack = grow(s.carrBack, nCarr)
		s.carriers = grow(s.carriers, nSym)
		carrBack, carriers = s.carrBack, s.carriers
	} else {
		carrBack = make([]complex128, nCarr)
		carriers = make([][]complex128, nSym)
	}
	s.csiBack = grow(s.csiBack, nCarr)
	s.csis = grow(s.csis, nSym)
	s.specBack = grow(s.specBack, nSym*phy.FFTSize)
	s.specs = grow(s.specs, nSym)
	s.symViews = grow(s.symViews, nSym)
	for n := 0; n < nSym; n++ {
		s.specs[n] = s.specBack[n*phy.FFTSize : (n+1)*phy.FFTSize]
		s.symViews[n] = x[start+n*phy.SymbolLen : start+(n+1)*phy.SymbolLen]
	}
	if err := phy.DemodulateSymbols(s.specs, s.symViews); err != nil {
		return nil, nil, err
	}
	for n, spec := range s.specs {
		carriers[n] = carrBack[n*phy.NumDataCarriers : (n+1)*phy.NumDataCarriers]
		s.csis[n] = s.csiBack[n*phy.NumDataCarriers : (n+1)*phy.NumDataCarriers]
		if err := s.eq.equalize(carriers[n], s.csis[n], spec, est, n+1, mmseReg); err != nil {
			return nil, nil, err
		}
	}
	return carriers, s.csis, nil
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// PacketResult reports a decoded packet and receiver diagnostics.
type PacketResult struct {
	// PSDU is the decoded payload.
	PSDU []byte
	// Signal is the decoded SIGNAL field.
	Signal phy.SignalField
	// Detection reports the packet detector output.
	Detection DetectResult
	// CFO is the total corrected frequency offset in cycles per sample.
	CFO float64
	// T1Index is the sample index of the first long training symbol.
	T1Index int
	// EqualizedCarriers holds the 48 equalized data carriers of each DATA
	// symbol (for EVM and constellation analysis).
	EqualizedCarriers [][]complex128
	// CSI holds the matching channel-state weights when the DATA decode was
	// deferred (Receiver.DeferDataDecode) and CSI weighting is enabled; nil
	// otherwise. It aliases receiver scratch and is only valid until the
	// next Receive call.
	CSI [][]float64
	// LinkSNRdB estimates the receive SNR from the two long training
	// symbols (a link-quality indicator).
	LinkSNRdB float64
	// EndIndex is the first sample after the decoded frame.
	EndIndex int
}

// Receiver is the complete synchronizing 802.11a receiver. A Receiver
// carries reusable scratch buffers, so reusing one Receiver across packets
// reaches a near-zero-allocation steady state. Each PacketResult it returns
// owns its PSDU and EqualizedCarriers and remains valid across subsequent
// Receive calls — unless ReuseBuffers is set. A Receiver must not be shared
// between goroutines.
type Receiver struct {
	// Detector configures packet detection.
	Detector *Detector
	// DisableCSI turns off channel-state weighting of the soft metrics.
	DisableCSI bool
	// HardDecisions replaces soft Viterbi metrics with hard slicer
	// decisions (an ablation: costs ~2 dB of coding gain).
	HardDecisions bool
	// MMSE replaces the zero-forcing one-tap equalizer with the MMSE
	// variant regularized by the link's estimated noise level. With
	// CSI-weighted soft metrics both perform alike; MMSE keeps hard
	// decisions and blind EVM sane on deeply faded carriers.
	MMSE bool
	// ReuseBuffers makes Receive reuse the PacketResult and the equalized-
	// carrier backing store across calls instead of allocating them fresh
	// per packet. The returned result (including EqualizedCarriers) is then
	// only valid until the next Receive call — opt in only when each packet
	// is fully consumed before the next is received.
	ReuseBuffers bool
	// DeferDataDecode makes Receive stop after equalizing the DATA field:
	// the result carries the equalized carriers, CSI weights and SIGNAL
	// field but a nil PSDU, to be completed by DecodeDeferredBatch. It
	// lets a caller time the decode apart from the receive, as the
	// benchmark module's traced pipeline does; the packet loop decodes
	// inside the receive.
	DeferDataDecode bool

	// Reusable scratch: the notched signal, rotated in place, and the
	// receive's per-packet buffers; lane of a Group's Receive.
	buf     []complex128
	ce      chanEstimator
	est     ChannelEstimate
	sigSpec []complex128
	sigData []complex128
	sigCSI  []float64
	dataScratch
	res PacketResult
	dec *phy.PacketDecoder

	// Receive's one-lane group.
	group *Group
	lane  [1]*Receiver
	x     [1][]complex128
}

// NewReceiver returns a receiver with default settings.
func NewReceiver() *Receiver { return &Receiver{Detector: NewDetector()} }

// Reset drops the receiver's carried state. Receive starts every packet
// from a clean state (its DC notch starts from zero each call), so there is
// none to drop: Reset is kept for callers that reset every block of a
// chain between unrelated signal captures.
func (r *Receiver) Reset() {}

// Receive synchronizes to and decodes the first packet at or after index
// from in the 20 MHz baseband signal x: a one-lane call of a Group.
func (r *Receiver) Receive(x []complex128, from int) (*PacketResult, error) {
	if r.group == nil {
		r.group = NewGroup()
		r.lane[0] = r
	}
	r.x[0] = x
	pkts, errs := r.group.Receive(r.lane[:], r.x[:], from)
	r.x[0] = nil
	return pkts[0], errs[0]
}

// IdealReceiver decodes a frame with genie knowledge of its exact start
// index, mode and PSDU length, bypassing detection and synchronization. The
// paper's EVM measurement (§5.2) used exactly this kind of ideal receiver
// model. Like Receiver, it carries reusable scratch and must not be shared
// between goroutines; each returned PacketResult owns its buffers unless
// ReuseBuffers is set.
type IdealReceiver struct {
	// Mode and PSDULen describe the expected frame.
	Mode    phy.Mode
	PSDULen int
	// ReuseBuffers makes Receive reuse the PacketResult and the equalized-
	// carrier backing store across calls; the returned result is then only
	// valid until the next Receive call.
	ReuseBuffers bool

	ce  chanEstimator
	est ChannelEstimate
	dataScratch
	res PacketResult
	dec *phy.PacketDecoder
}

// Receive decodes the frame whose short preamble begins exactly at start.
// The input signal is only read, never mutated.
func (r *IdealReceiver) Receive(x []complex128, start int) (*PacketResult, error) {
	if r.PSDULen < 1 {
		return nil, fmt.Errorf("rxdsp: ideal receiver needs a PSDU length")
	}
	t1 := start + phy.ShortPreambleLen + 32
	if t1 < 0 || t1+128 > len(x) {
		return nil, fmt.Errorf("rxdsp: frame start out of range")
	}
	// The genie chain applies no CFO mixing or notch, so it reads the
	// signal in place instead of cloning it.
	work := x[start:]
	t1 -= start

	if err := r.ce.estimateInto(&r.est, work, t1); err != nil {
		return nil, err
	}
	est := &r.est
	nBits := phy.ServiceBits + r.PSDULen*8 + phy.TailBits
	nSym := (nBits + r.Mode.NDBPS() - 1) / r.Mode.NDBPS()
	dataStart := t1 + 128 + phy.SymbolLen
	if dataStart+nSym*phy.SymbolLen > len(work) {
		return nil, fmt.Errorf("rxdsp: truncated DATA field")
	}
	carriers, csis, err := r.equalizeData(work, dataStart, nSym, est, 0, r.ReuseBuffers)
	if err != nil {
		return nil, err
	}
	if r.dec == nil {
		r.dec = phy.NewPacketDecoder()
	}
	psdu, err := r.dec.DecodeDataCarriers(carriers, csis, r.Mode, r.PSDULen)
	if err != nil {
		return nil, err
	}
	out := &PacketResult{}
	if r.ReuseBuffers {
		out = &r.res
	}
	*out = PacketResult{
		PSDU:              psdu,
		Signal:            phy.SignalField{Mode: r.Mode, Length: r.PSDULen},
		T1Index:           start + t1,
		EqualizedCarriers: carriers,
		EndIndex:          start + dataStart + nSym*phy.SymbolLen,
	}
	return out, nil
}
