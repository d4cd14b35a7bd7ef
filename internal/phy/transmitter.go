package phy

import (
	"fmt"
	"sync"

	"wlansim/internal/bits"
	"wlansim/internal/kernels"
	"wlansim/internal/phy/viterbi"
)

// ServiceBits is the number of SERVICE bits prepended to the PSDU (all zero;
// the first seven let the receiver resolve the scrambler seed).
const ServiceBits = 16

// TailBits is the number of zero tail bits terminating the convolutional
// code.
const TailBits = 6

// Frame describes an assembled PPDU.
type Frame struct {
	// Mode is the transmission mode of the DATA field.
	Mode Mode
	// PSDU is the transported MAC payload.
	PSDU []byte
	// NumDataSymbols is the number of OFDM symbols in the DATA field.
	NumDataSymbols int
	// ScramblerSeed is the 7-bit initializer used for the DATA field.
	ScramblerSeed byte
	// Samples is the complete baseband waveform at 20 MHz: short preamble,
	// long preamble, SIGNAL symbol and DATA symbols.
	Samples []complex128
}

// Transmitter builds clause-17 PPDUs. It carries reusable scratch for the
// bit pipeline and caches the (constant) preamble and SIGNAL symbol, so a
// long-lived transmitter allocates only the returned Frame per packet. A
// Transmitter must not be shared between goroutines.
type Transmitter struct {
	// Mode selects the DATA-field rate.
	Mode Mode
	// ScramblerSeed is the 7-bit scrambler initializer (0 selects 0x5D, an
	// arbitrary fixed nonzero default).
	ScramblerSeed byte

	// Per-packet scratch, grown on demand and retained across Transmit
	// calls. Frame.Samples is always freshly allocated — frames own their
	// waveform.
	stream []byte
	coded  []byte
	punct  []byte
	inter  []byte
	syms   []complex128

	// The whole DATA field's spectra, assembled before one batched
	// modulation pass.
	specBack []complex128
	specs    [][]complex128
	tdViews  [][]complex128

	// Cached SIGNAL symbol; valid while (sigRate, sigLen) match.
	sig     []complex128
	sigRate byte
	sigLen  int
}

// preambleCache holds the 320 constant PLCP preamble samples every frame
// starts with.
var (
	preambleOnce  sync.Once
	preambleCache []complex128
)

func cachedPreamble() []complex128 {
	preambleOnce.Do(func() { preambleCache = Preamble() })
	return preambleCache
}

// NewTransmitter returns a transmitter for the given rate in Mbps.
func NewTransmitter(rateMbps int) (*Transmitter, error) {
	mode, err := ModeByRate(rateMbps)
	if err != nil {
		return nil, err
	}
	return &Transmitter{Mode: mode, ScramblerSeed: 0x5D}, nil
}

// Transmit assembles the complete PPDU waveform for the given PSDU. The
// returned Frame owns freshly allocated Samples and PSDU buffers.
func (t *Transmitter) Transmit(psdu []byte) (*Frame, error) {
	f := &Frame{PSDU: append([]byte(nil), psdu...)}
	if err := t.TransmitInto(f, f.PSDU); err != nil {
		return nil, err
	}
	return f, nil
}

// TransmitInto assembles the complete PPDU waveform for the given PSDU into
// f, reusing f's Samples capacity across calls (the zero Frame works and
// grows on demand). f.PSDU is set to psdu — aliased, not copied — so the
// caller owns the payload buffer; all other Frame fields are overwritten.
// A long-lived (Transmitter, Frame) pair therefore transmits without any
// per-packet allocation once the buffers have grown to the scenario's frame
// length.
func (t *Transmitter) TransmitInto(f *Frame, psdu []byte) error {
	if len(psdu) < 1 || len(psdu) > 4095 {
		return fmt.Errorf("phy: PSDU length %d outside 1..4095 octets", len(psdu))
	}
	seed := t.ScramblerSeed
	if seed == 0 {
		seed = 0x5D
	}

	// DATA field bit stream: SERVICE + PSDU + tail + pad, scrambled, with
	// the tail-bit positions zeroed after scrambling (clause 17.3.5.2).
	nBits := ServiceBits + 8*len(psdu) + TailBits
	ndbps := t.Mode.NDBPS()
	nSym := (nBits + ndbps - 1) / ndbps
	total := nSym * ndbps
	if cap(t.stream) < total {
		t.stream = make([]byte, total)
	}
	scrambled := t.stream[:total]
	for i := range scrambled {
		scrambled[i] = 0
	}
	for i, b := range psdu {
		base := ServiceBits + i*8
		for j := 0; j < 8; j++ {
			scrambled[base+j] = (b >> j) & 1
		}
	}
	s := NewScrambler(seed)
	s.Process(scrambled)
	// Zero the scrambled tail bits so the encoder terminates.
	tailStart := ServiceBits + 8*len(psdu)
	for i := 0; i < TailBits; i++ {
		scrambled[tailStart+i] = 0
	}

	t.coded = ConvolutionalEncodeAppend(t.coded[:0], scrambled)
	punct, err := PunctureAppend(t.punct[:0], t.coded, t.Mode.CodeRate)
	if err != nil {
		return err
	}
	t.punct = punct
	ncbps := t.Mode.NCBPS()
	if len(punct) != nSym*ncbps {
		return fmt.Errorf("phy: internal error: %d coded bits for %d symbols of %d",
			len(punct), nSym, ncbps)
	}

	if t.sig == nil || t.sigRate != t.Mode.RateBits || t.sigLen != len(psdu) {
		sig, err := EncodeSignal(t.Mode, len(psdu))
		if err != nil {
			return err
		}
		t.sig, t.sigRate, t.sigLen = sig, t.Mode.RateBits, len(psdu)
	}

	need := PreambleLen + (1+nSym)*SymbolLen
	if cap(f.Samples) < need {
		f.Samples = make([]complex128, 0, need)
	}
	samples := f.Samples[:0]
	samples = append(samples, cachedPreamble()...)
	samples = append(samples, t.sig...)

	// Assemble every DATA-symbol spectrum first, then run the whole field
	// through the batched four-lane inverse transform.
	if cap(t.specBack) < nSym*FFTSize {
		t.specBack = make([]complex128, nSym*FFTSize)
	}
	if cap(t.specs) < nSym {
		t.specs = make([][]complex128, nSym)
	}
	specBack := t.specBack[:nSym*FFTSize]
	specs := t.specs[:nSym]
	for n := 0; n < nSym; n++ {
		block := punct[n*ncbps : (n+1)*ncbps]
		inter, err := InterleaveInto(t.inter, block, t.Mode)
		if err != nil {
			return err
		}
		t.inter = inter
		syms, err := MapBitsInto(t.syms, inter, t.Mode.Modulation)
		if err != nil {
			return err
		}
		t.syms = syms
		spec, err := AssembleSpectrumInto(specBack[n*FFTSize:(n+1)*FFTSize], syms, n+1) // data symbols use p_1...
		if err != nil {
			return err
		}
		specs[n] = spec
	}
	samples, t.tdViews, err = ModulateSymbolsAppend(samples, specs, t.tdViews)
	if err != nil {
		return err
	}

	f.Mode = t.Mode
	f.PSDU = psdu
	f.NumDataSymbols = nSym
	f.ScramblerSeed = seed
	f.Samples = samples
	return nil
}

// PacketDecoder carries the reusable scratch of the bit-level receive
// chain — per-symbol soft metrics, the depunctured stream and the Viterbi
// decoder state — so the per-packet decode reaches a near-zero-allocation
// steady state. The zero value is not usable; construct with
// NewPacketDecoder. A PacketDecoder must not be shared between goroutines.
type PacketDecoder struct {
	sym     []float64 // one symbol's demapped metrics
	soft    []float64 // deinterleaved stream of the whole DATA field
	dep     []float64 // depunctured stream
	hard    []byte    // one symbol's hard decisions
	decoded []byte    // Viterbi output
	vit     *viterbi.Decoder
}

// NewPacketDecoder returns an empty decoder ready for use.
func NewPacketDecoder() *PacketDecoder {
	return &PacketDecoder{vit: viterbi.New()}
}

// DecodeDataCarriers performs the bit-level receive chain on equalized data
// carriers: soft demapping (optionally CSI-weighted), deinterleaving,
// depuncturing, Viterbi decoding and descrambling. carriers holds the 48
// equalized data-carrier values of each DATA OFDM symbol in order; csi, if
// non-nil, holds the matching channel-state weights. It returns the decoded
// PSDU.
func (d *PacketDecoder) DecodeDataCarriers(carriers [][]complex128, csi [][]float64, mode Mode, psduLen int) ([]byte, error) {
	dep, err := d.prepareSoft(carriers, csi, mode, psduLen)
	if err != nil {
		return nil, err
	}
	decoded, err := d.vit.DecodeSoftInto(d.decoded, dep)
	if err != nil {
		return nil, err
	}
	d.decoded = decoded
	return d.finishDecoded(decoded, psduLen)
}

// prepareSoft runs the pre-Viterbi half of the soft receive chain — CSI
// weighted demapping, deinterleaving and depuncturing — and returns the
// depunctured metric stream, kept in the decoder's scratch until the next
// prepare or decode call. Splitting here lets the batched decode push many
// packets' streams through one lock-step Viterbi pass.
func (d *PacketDecoder) prepareSoft(carriers [][]complex128, csi [][]float64, mode Mode, psduLen int) ([]float64, error) {
	if psduLen < 1 {
		return nil, fmt.Errorf("phy: psduLen %d invalid", psduLen)
	}
	ncbps := mode.NCBPS()
	soft := d.growSoft(len(carriers) * ncbps)
	for n, c := range carriers {
		var w []float64
		if csi != nil {
			w = csi[n]
		}
		chunk, err := d.demapInto(soft[len(soft):], c, w, mode)
		if err != nil {
			return nil, err
		}
		soft = soft[:len(soft)+len(chunk)]
	}
	d.soft = soft
	dep, err := DepunctureAppend(d.dep[:0], soft, mode.CodeRate)
	if err != nil {
		return nil, err
	}
	d.dep = dep
	return dep, nil
}

// demapInto demaps one OFDM symbol's equalized data carriers c, weighted by
// w (nil: unweighted), and writes its NCBPS deinterleaved soft metrics into
// out (grown if its capacity is short, reused otherwise). The vector
// demapper writes bit planes, which the deinterleaver reads through its
// planar table; a symbol it refuses (a NaN or ±0 input) or of another shape
// takes the scalar demapper, which also reports the shape errors. Either
// way the metrics are the scalar demapper's, bit for bit.
func (d *PacketDecoder) demapInto(out []float64, c []complex128, w []float64, mode Mode) ([]float64, error) {
	ncbps := mode.NCBPS()
	if cap(d.sym) < ncbps {
		d.sym = make([]float64, ncbps)
	}
	weights := w
	if w == nil {
		weights = unitWeights[:]
	}
	t, perm, planes := tables[mode.Modulation], deinterleavePlanes(mode), d.sym[:ncbps]
	if t != nil && len(c) == NumDataCarriers && len(weights) == len(c) && len(perm) == ncbps &&
		kernels.DemapSoft(planes, c, weights, t.axisI, t.axisQ) {
		if cap(out) < ncbps {
			out = make([]float64, ncbps)
		}
		out = out[:ncbps]
		for k, p := range perm {
			out[k] = planes[p]
		}
		return out, nil
	}
	m, err := DemapSoftAppend(d.sym[:0], c, mode.Modulation, w)
	if err != nil {
		return nil, err
	}
	d.sym = m
	return DeinterleaveSoftInto(out, m, mode)
}

// DecodeDataCarriersHard is the hard-decision variant of
// DecodeDataCarriers: each carrier is sliced to the nearest constellation
// point before deinterleaving, discarding the soft reliability information
// (an ablation worth ~2 dB of coding gain).
func (d *PacketDecoder) DecodeDataCarriersHard(carriers [][]complex128, mode Mode, psduLen int) ([]byte, error) {
	if psduLen < 1 {
		return nil, fmt.Errorf("phy: psduLen %d invalid", psduLen)
	}
	ncbps := mode.NCBPS()
	soft := d.growSoft(len(carriers) * ncbps)
	for _, c := range carriers {
		hard, err := DemapHardAppend(d.hard[:0], c, mode.Modulation)
		if err != nil {
			return nil, err
		}
		d.hard = hard
		m := d.sym[:0]
		for _, b := range hard {
			m = append(m, float64(1-2*int(b)))
		}
		d.sym = m
		chunk, err := DeinterleaveSoftInto(soft[len(soft):], m, mode)
		if err != nil {
			return nil, err
		}
		soft = soft[:len(soft)+len(chunk)]
	}
	d.soft = soft
	return d.finish(soft, mode, psduLen)
}

// growSoft returns the empty soft-metric accumulator with capacity for the
// whole DATA field, so the per-symbol deinterleaver writes in place.
func (d *PacketDecoder) growSoft(need int) []float64 {
	if cap(d.soft) < need {
		d.soft = make([]float64, 0, need)
	}
	return d.soft[:0]
}

// finish runs depuncturing, Viterbi decoding and descrambling on the
// accumulated soft stream.
func (d *PacketDecoder) finish(soft []float64, mode Mode, psduLen int) ([]byte, error) {
	dep, err := DepunctureAppend(d.dep[:0], soft, mode.CodeRate)
	if err != nil {
		return nil, err
	}
	d.dep = dep
	decoded, err := d.vit.DecodeSoftInto(d.decoded, dep)
	if err != nil {
		return nil, err
	}
	d.decoded = decoded
	return d.finishDecoded(decoded, psduLen)
}

// finishDecoded descrambles the Viterbi output and packs the PSDU bytes.
func (d *PacketDecoder) finishDecoded(decoded []byte, psduLen int) ([]byte, error) {
	need := ServiceBits + psduLen*8
	if len(decoded) < need {
		return nil, fmt.Errorf("phy: decoded %d bits, need %d", len(decoded), need)
	}
	// Descramble. The SERVICE field is transmitted as zeros, so the first 7
	// descrambler bits reveal the seed; equivalently, synchronize a fresh
	// scrambler by searching the seed that zeroes the first 7 bits.
	seed := recoverScramblerSeed(decoded[:7])
	s := NewScrambler(seed)
	s.Process(decoded[:need])
	return bits.ToBytes(decoded[ServiceBits:need])
}

// recoverScramblerSeed derives the transmit scrambler seed from the first
// seven received (scrambled) bits, which were all zero before scrambling and
// therefore equal the scrambling sequence itself.
func recoverScramblerSeed(first7 []byte) byte {
	// The scrambling sequence bits are successive feedback values; feeding
	// them back reconstructs the register. Run the recurrence backwards:
	// simpler is to search all 127 seeds (cheap and obviously correct).
	for seed := byte(1); seed < 128; seed++ {
		s := NewScrambler(seed)
		ok := true
		for _, want := range first7 {
			if s.NextBit() != want&1 {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	return 0x7F
}
