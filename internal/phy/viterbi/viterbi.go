// Package viterbi implements a maximum-likelihood decoder for the IEEE
// 802.11a rate-1/2, K=7 convolutional code (generators 133/171 octal), with
// soft-decision inputs and support for the punctured rates via erasure
// metrics.
package viterbi

import (
	"errors"
	"fmt"
	"math"

	"wlansim/internal/kernels"
)

// The trellis. The add-compare-select recursion iterates over *target*
// states. Target state s has exactly two predecessors p(r) = ((s<<1)|r)&63
// for r in {0,1}, and both transitions carry the same input bit s>>5 (the
// bit shifted into the encoder register). The recursion itself lives in
// kernels.ACSRunBatch (an unrolled, branchless butterfly schedule per lane,
// bit-identical to the frozen kernels.ACSStepRef).
const (
	constraint = 7
	numStates  = 1 << (constraint - 1) // 64
)

// Decoder decodes the clause-17 mother code. It carries reusable scratch
// (per-lane path-metric banks and bit-packed survivor decisions), so a
// long-lived decoder reaches a zero-allocation steady state. The zero value
// decodes an unterminated trellis; New returns the terminated configuration
// the 802.11a tail bits imply. A Decoder must not be shared between
// goroutines.
type Decoder struct {
	// Terminated indicates the trellis starts and ends in the zero state
	// (the transmitter appended tail bits). When false the decoder picks
	// the best final state.
	Terminated bool

	// Per lane: the two path-metric banks swapped each step, and one bit
	// per state per step — bit s of decisions[b][t] says which predecessor
	// (r in p = ((s<<1)|r)&63) survived into state s at step t. Grown on
	// demand, retained across calls.
	banks     [][2][numStates]float64
	metric    []*[numStates]float64
	scratch   []*[numStates]float64
	decisions [][]uint64
	clean     []bool
	errs      []error

	// DecodeSoftInto's one-lane call.
	dst  [1][]byte
	soft [1][]float64
}

// New returns a decoder for a terminated (tail-bited-to-zero) trellis.
func New() *Decoder { return &Decoder{Terminated: true} }

func (d *Decoder) grow(lanes, steps int) {
	if len(d.banks) < lanes {
		d.banks = make([][2][numStates]float64, lanes)
		d.metric = make([]*[numStates]float64, lanes)
		d.scratch = make([]*[numStates]float64, lanes)
		d.clean = make([]bool, lanes)
		d.errs = make([]error, lanes)
		old := d.decisions
		d.decisions = make([][]uint64, lanes)
		copy(d.decisions, old)
	}
	for b := 0; b < lanes; b++ {
		d.metric[b] = &d.banks[b][0]
		d.scratch[b] = &d.banks[b][1]
		if cap(d.decisions[b]) < steps {
			d.decisions[b] = make([]uint64, steps)
		}
	}
}

// DecodeSoftInto decodes a soft-metric stream of 2n values (A and B metric
// for each of the n trellis steps) into n bits, written into dst (grown if
// its capacity is short, reused otherwise). Positive metric values favor
// coded bit 0, negative favor 1, zero is an erasure (depunctured position).
// It returns the decoded bits including any tail bits the encoder appended,
// and allocates nothing when dst and the decoder scratch are already large
// enough. It is a one-lane DecodeSoftBatch.
//
//lint:hotpath
func (d *Decoder) DecodeSoftInto(dst []byte, soft []float64) ([]byte, error) {
	d.dst[0], d.soft[0] = dst, soft
	out, errs := d.DecodeSoftBatch(d.dst[:], d.soft[:])
	bits := out[0]
	d.dst[0], d.soft[0] = nil, nil
	return bits, errs[0]
}

// DecodeSoftBatch decodes B soft-metric streams of identical length in
// lock-step — one trellis-step loop updates every lane's metric bank —
// writing lane b's bits into dst[b] (grown if short, reused otherwise; dst
// itself may be nil). It returns the lanes' bits and, per lane, the error
// of its decode: nil, or, for a terminated trellis, an unreachable zero
// state, in which case the lane's bits are nil. An odd stream length, or a
// lane whose length differs from lane 0's, fails every lane with the same
// error. Both returned slices are the decoder's scratch, valid until its
// next call.
//
//lint:hotpath
func (d *Decoder) DecodeSoftBatch(dst [][]byte, soft [][]float64) ([][]byte, []error) {
	lanes := len(soft)
	if cap(dst) < lanes {
		//lint:ignore escape grows only when the caller's buffer is short
		dst = make([][]byte, lanes)
	}
	dst = dst[:lanes]
	if lanes == 0 {
		return dst, nil
	}
	steps := len(soft[0]) / 2
	d.grow(lanes, steps)
	errs := d.errs[:lanes]
	if err := shapeError(soft); err != nil {
		for b := range errs {
			dst[b], errs[b] = nil, err
		}
		return dst, errs
	}
	if steps == 0 {
		for b := range dst {
			dst[b], errs[b] = nil, nil
		}
		return dst, errs
	}

	metric := d.metric[:lanes]
	scratch := d.scratch[:lanes]
	decisions := d.decisions[:lanes]
	for b := 0; b < lanes; b++ {
		for i := range metric[b] {
			metric[b][i] = math.Inf(-1)
		}
		metric[b][0] = 0 // encoder starts in the zero state
		decisions[b] = decisions[b][:steps]
	}

	// The 0/-Inf banks above satisfy the kernel's no-NaN/no-+Inf entry
	// condition. Lane b's final bank follows its parity rule: metric for an
	// even step count, scratch for odd.
	kernels.ACSRunBatch(decisions, soft, metric, scratch, d.clean[:lanes])
	finals := metric
	if steps%2 == 1 {
		finals = scratch
	}
	for b := 0; b < lanes; b++ {
		// Select the final state.
		final := 0
		bank := finals[b]
		errs[b] = nil
		if !d.Terminated {
			best := math.Inf(-1)
			for s, m := range bank {
				if m > best {
					best, final = m, s
				}
			}
		} else if math.IsInf(bank[0], -1) {
			dst[b], errs[b] = nil, errUnreachable
			continue
		}

		// Trace back. The decoded bit at step t is the bit shifted into the
		// register to reach the survivor state, i.e. its top register bit;
		// the decision bit recovers which predecessor to step back to.
		if cap(dst[b]) < steps {
			//lint:ignore escape grows only when the caller's buffer is short
			dst[b] = make([]byte, steps)
		}
		out := dst[b][:steps]
		dec := decisions[b]
		state := final
		for t := steps - 1; t >= 0; t-- {
			out[t] = byte(state >> 5)
			r := (dec[t] >> uint(state)) & 1
			state = ((state << 1) | int(r)) & (numStates - 1)
		}
		dst[b] = out
	}
	return dst, errs
}

// errUnreachable is a terminated trellis's failed decode.
var errUnreachable = errors.New("viterbi: zero state unreachable in terminated trellis")

// shapeError reports an odd stream length or lanes of unequal lengths.
func shapeError(soft [][]float64) error {
	if len(soft[0])%2 != 0 {
		return fmt.Errorf("viterbi: soft stream length %d is odd", len(soft[0]))
	}
	for b := 1; b < len(soft); b++ {
		if len(soft[b]) != len(soft[0]) {
			return fmt.Errorf("viterbi: lane %d stream length %d != lane 0 length %d", b, len(soft[b]), len(soft[0]))
		}
	}
	return nil
}
