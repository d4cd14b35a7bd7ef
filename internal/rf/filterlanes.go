package rf

import (
	"fmt"
)

// FilterLanes runs the back half of the receiver — channel-select filter,
// AGC, ADC and decimation — for several receivers that differ only in their
// channel-select filter: the points of a filter sweep (paper Fig. 5). Such
// receivers agree on every block upstream of the filter, so one
// ProcessToFilter waveform per packet serves them all; FilterLanes reads it
// once per lane, read-only, and streams it in blocks through each lane's own
// filter, then through one lane-interleaved AGC loop (the loop BatchReceiver
// uses), the lane's ADC and its decimator.
//
// Exactness is the contract: lane l is bit-identical to Reset followed by
// ProcessFromFilter on a Receiver built from the lane's configuration and
// carrying the same packet history (the AGC resync counter is the only state
// Reset preserves, and it is carried per lane here). Lanes never mix and
// each performs the scalar arithmetic in scalar order: the filter and the
// AGC carry their state across blocks, the ADC and decimator are memoryless
// apart from the clip count and the output grid.
type FilterLanes struct {
	agc    *AGC // shared control law; per-lane state lives in st
	adc    *ADC // shared converter; clip counts are per lane
	factor int  // decimation factor (the receiver's Oversample)

	filters []*ChebyshevLowpass // per-lane channel-select filter (nil: none)
	resync  []int               // per-lane AGC resync counter, carried across packets
	clip    []int               // per-lane ADC clip count of the last packet

	st   agcBatchState  // AGC state of the lanes of the current call
	blk  [][]complex128 // per-call-lane block buffers
	view [][]complex128 // per-call-lane views of the current block
	outs [][]complex128 // per-call-lane decimated outputs, reused
}

// filterLaneBlock is the streaming block length in samples: a block of every
// lane stays cache-resident between the filter, the AGC and the ADC.
const filterLaneBlock = 256

// NewFilterLanes builds the lanes for the tuned receiver configurations cfgs,
// one per lane. rx supplies the shared AGC and ADC and is the reference
// configuration: every lane must equal rx's configuration apart from
// ChannelFilterOrder, ChannelFilterEdgeHz and ChannelFilterRippleDB.
func NewFilterLanes(rx *Receiver, cfgs []ReceiverConfig) (*FilterLanes, error) {
	f := &FilterLanes{
		agc:     rx.agc,
		adc:     rx.adc,
		factor:  rx.cfg.Oversample,
		filters: make([]*ChebyshevLowpass, len(cfgs)),
		resync:  make([]int, len(cfgs)),
		clip:    make([]int, len(cfgs)),
	}
	for l, cfg := range cfgs {
		if !sameBeyondFilter(cfg, rx.cfg) {
			return nil, fmt.Errorf("rf: filter lane %d differs from the receiver beyond the channel-select filter", l)
		}
		if cfg.ChannelFilterOrder > 0 {
			ch, err := NewChebyshevLowpass(cfg.ChannelFilterOrder,
				cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, cfg.SampleRateHz)
			if err != nil {
				return nil, fmt.Errorf("rf: filter lane %d: %w", l, err)
			}
			f.filters[l] = ch
		}
	}
	return f, nil
}

// sameBeyondFilter reports whether a and b configure the same receiver apart
// from the channel-select filter fields.
func sameBeyondFilter(a, b ReceiverConfig) bool {
	if !sameLO(a.Mixer1.LO, b.Mixer1.LO) || !sameLO(a.Mixer2.LO, b.Mixer2.LO) {
		return false
	}
	for _, c := range []*ReceiverConfig{&a, &b} {
		c.Mixer1.LO, c.Mixer2.LO = nil, nil
		c.ChannelFilterOrder, c.ChannelFilterEdgeHz, c.ChannelFilterRippleDB = 0, 0, 0
	}
	return a == b
}

func sameLO(a, b *LOConfig) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// ClippedSamples reports lane l's ADC clipping events in its last packet.
func (f *FilterLanes) ClippedSamples(l int) int { return f.clip[l] }

// Process runs one packet through the lanes listed in lanes: src[k] is the
// ProcessToFilter waveform of lane lanes[k]. All sources must have equal
// length; they are only read, so lanes may share one slice. Lanes not listed
// keep their state untouched (a finished sweep point leaves the group). The
// k-th returned slice is lane lanes[k]'s 20 MHz baseband, owned by the lanes
// (reused by the next call).
func (f *FilterLanes) Process(lanes []int, src [][]complex128) [][]complex128 {
	L := len(lanes)
	if len(src) != L {
		panic(fmt.Sprintf("rf: %d filter lanes given %d sources", L, len(src)))
	}
	if L == 0 {
		return nil
	}
	n := len(src[0])
	for k := 1; k < L; k++ {
		if len(src[k]) != n {
			panic(fmt.Sprintf("rf: filter lane source %d length %d != source 0 length %d", k, len(src[k]), n))
		}
	}
	f.grow(L)
	for k, l := range lanes {
		if ch := f.filters[l]; ch != nil {
			ch.Reset()
		}
		f.st.resync[k] = f.resync[l]
		f.clip[l] = 0
		f.outs[k] = f.outs[k][:0]
	}
	f.agc.resetLanes(&f.st, L)
	f.stream(lanes, src, n)
	for k, l := range lanes {
		f.resync[l] = f.st.resync[k]
	}
	return f.outs[:L]
}

// stream pushes the packet through the lanes block by block.
//
//lint:hotpath filter-lane loop: per-block filter, AGC, ADC and decimation across lanes
func (f *FilterLanes) stream(lanes []int, src [][]complex128, n int) {
	L := len(lanes)
	view := f.view[:L]
	for s := 0; s < n; s += filterLaneBlock {
		e := s + filterLaneBlock
		if e > n {
			e = n
		}
		for k, l := range lanes {
			b := f.blk[k][:e-s]
			copy(b, src[k][s:e])
			if ch := f.filters[l]; ch != nil {
				ch.Process(b)
			}
			view[k] = b
		}
		f.agc.stepLanes(view, &f.st)
		// The decimator keeps every factor-th sample of the packet from
		// sample 0 on (Reset zeroes its phase); first is the block offset of
		// the first kept sample.
		first := (f.factor - s%f.factor) % f.factor
		for k, l := range lanes {
			var clips int
			f.outs[k], clips = f.adc.convertKeep(f.outs[k], view[k], first, f.factor)
			f.clip[l] += clips
		}
	}
}

// grow sizes the per-call-lane scratch for L lanes.
func (f *FilterLanes) grow(L int) {
	f.st.grow(L)
	for len(f.blk) < L {
		f.blk = append(f.blk, make([]complex128, filterLaneBlock))
		f.outs = append(f.outs, nil)
	}
	if len(f.view) < L {
		f.view = make([][]complex128, L)
	}
}
