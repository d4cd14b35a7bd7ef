package phy

import (
	"fmt"

	"wlansim/internal/bits"
	"wlansim/internal/kernels"
	"wlansim/internal/phy/viterbi"
)

// The DATA-field decode runs lanes: B packets whose SIGNAL fields agree
// push their streams through one lock-step Viterbi pass
// (viterbi.DecodeSoftBatch), which fills the ILP the scalar trellis
// recurrence leaves idle. Each lane prepares its stream on its own decoder —
// soft demapping (optionally CSI-weighted) or hard slicing, then
// deinterleaving and depuncturing — and after the pass is descrambled and
// packed on it. A single packet's decode is a one-lane call.

// PacketDecoder carries the reusable scratch of the bit-level receive
// chain — per-symbol metrics, the DATA field's deinterleaved and
// depunctured streams and the Viterbi decoder state — so the per-packet
// decode reaches a near-zero-allocation steady state. The zero value is not
// usable; construct with NewPacketDecoder. A PacketDecoder must not be
// shared between goroutines.
type PacketDecoder struct {
	sym     []float64 // one symbol's demapped metrics
	soft    []float64 // deinterleaved stream of the whole DATA field
	dep     []float64 // depunctured stream
	hard    []byte    // one symbol's hard decisions
	decoded []byte    // Viterbi output
	vit     *viterbi.Decoder

	// The scratch of a decode this decoder leads (lanes[0].Dec): the
	// prepared lanes' streams and output buffers, and which lanes they are.
	deps  [][]float64
	outs  [][]byte
	ready []int
	// DecodeDataCarriers's one-lane call.
	one [1]DataLane
}

// NewPacketDecoder returns an empty decoder ready for use.
func NewPacketDecoder() *PacketDecoder {
	return &PacketDecoder{vit: viterbi.New()}
}

// DataLane is one packet's DATA field as a lane of DecodeDataCarriersBatch.
type DataLane struct {
	// Dec is the lane's decoder; the lane's streams live in its scratch.
	Dec *PacketDecoder
	// Carriers holds the 48 equalized data-carrier values of each DATA OFDM
	// symbol in order.
	Carriers [][]complex128
	// CSI, if non-nil, holds the matching channel-state weights of the soft
	// metrics.
	CSI [][]float64
	// Hard slices each carrier to the nearest constellation point before
	// deinterleaving, discarding the soft reliability information (an
	// ablation worth ~2 dB of coding gain); CSI is then unused.
	Hard bool

	// PSDU and Err are the decode's outcome: the PSDU, or nil and the error.
	PSDU []byte
	Err  error
}

// DecodeDataCarriers performs the bit-level receive chain on equalized data
// carriers: soft demapping (optionally CSI-weighted), deinterleaving,
// depuncturing, Viterbi decoding and descrambling. carriers holds the 48
// equalized data-carrier values of each DATA OFDM symbol in order; csi, if
// non-nil, holds the matching channel-state weights. It returns the decoded
// PSDU. It is a one-lane DecodeDataCarriersBatch.
func (d *PacketDecoder) DecodeDataCarriers(carriers [][]complex128, csi [][]float64, mode Mode, psduLen int) ([]byte, error) {
	d.one[0] = DataLane{Dec: d, Carriers: carriers, CSI: csi}
	DecodeDataCarriersBatch(d.one[:], mode, psduLen)
	psdu, err := d.one[0].PSDU, d.one[0].Err
	d.one[0] = DataLane{}
	return psdu, err
}

// DecodeDataCarriersBatch decodes the lanes' DATA fields in lock-step and
// sets each lane's PSDU and Err. All lanes must share mode, psduLen and
// symbol count, and each its own decoder. Every lane's outcome is the one
// its decode alone would have: a lane whose prepare step or trellis fails
// carries its own error and leaves the others' decodes intact. The lead
// lane's decoder holds the pass's scratch, so a warm call allocates only
// the lanes' PSDUs.
func DecodeDataCarriersBatch(lanes []DataLane, mode Mode, psduLen int) {
	if len(lanes) == 0 {
		return
	}
	lead := lanes[0].Dec
	deps, outs, ready := lead.deps[:0], lead.outs[:0], lead.ready[:0]
	for k := range lanes {
		l := &lanes[k]
		l.PSDU, l.Err = nil, nil
		dep, err := l.Dec.prepare(l, mode, psduLen)
		if err != nil {
			l.Err = err
			continue
		}
		deps = append(deps, dep)
		outs = append(outs, l.Dec.decoded)
		ready = append(ready, k)
	}
	if len(ready) > 0 {
		decoded, errs := lead.vit.DecodeSoftBatch(outs, deps)
		for j, k := range ready {
			l := &lanes[k]
			if errs[j] != nil {
				l.Err = errs[j]
				continue
			}
			l.Dec.decoded = decoded[j]
			l.PSDU, l.Err = l.Dec.finishDecoded(decoded[j], psduLen)
		}
	}
	// Keep the grown scratch, not the lanes' buffers.
	clear(deps)
	clear(outs)
	lead.deps, lead.outs, lead.ready = deps, outs, ready
}

// prepare runs the pre-Viterbi half of lane l's decode on d's scratch:
// each symbol's soft demap (or hard slice) and deinterleave, then the
// depuncturing. It returns the depunctured stream, valid until d's next
// decode.
func (d *PacketDecoder) prepare(l *DataLane, mode Mode, psduLen int) ([]float64, error) {
	if psduLen < 1 {
		return nil, fmt.Errorf("phy: psduLen %d invalid", psduLen)
	}
	ncbps := mode.NCBPS()
	if need := len(l.Carriers) * ncbps; cap(d.soft) < need {
		d.soft = make([]float64, 0, need)
	}
	soft := d.soft[:0]
	for n, c := range l.Carriers {
		var chunk []float64
		var err error
		if l.Hard {
			chunk, err = d.sliceInto(soft[len(soft):], c, mode)
		} else {
			var w []float64
			if l.CSI != nil {
				w = l.CSI[n]
			}
			chunk, err = d.demapInto(soft[len(soft):], c, w, mode)
		}
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

// sliceInto slices one OFDM symbol's equalized data carriers c to hard
// decisions, maps them to ±1 metrics and writes the symbol's NCBPS
// deinterleaved metrics into out (grown if its capacity is short).
func (d *PacketDecoder) sliceInto(out []float64, c []complex128, mode Mode) ([]float64, error) {
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
	return DeinterleaveSoftInto(out, m, mode)
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
