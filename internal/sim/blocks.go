package sim

import (
	"fmt"

	"wlansim/internal/channel"
	"wlansim/internal/dsp"
)

// Standard block library — the counterpart of SPW's stock libraries (§3.1):
// sources, gains, adders, mixers/frequency shifters, the upsampler wrapper
// and noise sources, all as ProcessFunc/SourceFunc factories ready for
// Graph.AddBlock.

// SliceSource emits data in frameLen chunks, padding with zeros until total
// samples have been produced, then reports done. total <= len(data) simply
// truncates.
func SliceSource(data []complex128, total int) SourceFunc {
	pos := 0
	return func(frameLen int) ([]complex128, bool) {
		if pos >= total {
			return nil, true
		}
		n := frameLen
		if pos+n > total {
			n = total - pos
		}
		out := make([]complex128, n)
		if pos < len(data) {
			end := pos + n
			if end > len(data) {
				end = len(data)
			}
			copy(out, data[pos:end])
		}
		pos += n
		return out, false
	}
}

// GainBlock scales frames by a fixed complex gain.
func GainBlock(g complex128) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		out := make([]complex128, len(in[0]))
		for i, v := range in[0] {
			out[i] = v * g
		}
		return [][]complex128{out}, nil
	}
}

// AdderBlock sums n equal-length input frames.
func AdderBlock(n int) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		out := dsp.Clone(in[0])
		for k := 1; k < n; k++ {
			if len(in[k]) != len(out) {
				return nil, fmt.Errorf("sim: adder frame length mismatch %d vs %d", len(in[k]), len(out))
			}
			for i, v := range in[k] {
				out[i] += v
			}
		}
		return [][]complex128{out}, nil
	}
}

// FrequencyShiftBlock mixes frames with a persistent oscillator at the
// normalized frequency nu (cycles per sample).
func FrequencyShiftBlock(nu float64) ProcessFunc {
	osc := dsp.NewOscillator(nu, 0)
	return func(in [][]complex128) ([][]complex128, error) {
		out := dsp.Clone(in[0])
		osc.MixInto(out)
		return [][]complex128{out}, nil
	}
}

// UpsamplerBlock wraps a stateful interpolator (rate-changing).
func UpsamplerBlock(u *dsp.Upsampler) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		return [][]complex128{u.Process(in[0])}, nil
	}
}

// AWGNBlock adds noise from a persistent source.
func AWGNBlock(a *channel.AWGN) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		return [][]complex128{a.AddTo(dsp.Clone(in[0]))}, nil
	}
}

// Processor is anything with the streaming Process/Reset shape (rf.FrontEnd,
// rf blocks, channel models); ProcessorBlock adapts it to the graph.
type Processor interface {
	Process(x []complex128) []complex128
}

// ProcessorBlock wraps any streaming processor (possibly rate-changing).
// The input frame is cloned so upstream fan-out is not disturbed.
func ProcessorBlock(p Processor) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		return [][]complex128{p.Process(dsp.Clone(in[0]))}, nil
	}
}
