package channel

import (
	"fmt"
	"math"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// Emitter is one signal entering the air interface: a baseband waveform at
// the native 20 MHz rate, a carrier offset from the receiver's tuned
// channel, and an absolute received power.
type Emitter struct {
	// Samples is the emitter's complex baseband waveform at the native rate.
	Samples []complex128
	// OffsetHz is the emitter's carrier offset from the wanted channel
	// (e.g. +20e6 for the first adjacent channel).
	OffsetHz float64
	// PowerDBm is the received mean power of this emitter.
	PowerDBm float64
	// DelaySamples delays the emitter start on the native 20 MHz grid.
	DelaySamples int
}

// Composer mixes a wanted signal and interferers onto a common oversampled
// baseband grid, reproducing the paper's adjacent-channel test setup. A
// Composer carries reusable scratch, so it must not be shared between
// goroutines.
type Composer struct {
	// Oversample is the integer oversampling factor relative to the native
	// 20 MHz rate. It must be large enough that every emitter's spectrum
	// fits inside the composite Nyquist band.
	Oversample int
	// NativeRateHz is the native baseband rate (20 MHz for 802.11a).
	NativeRateHz float64

	// Scratch kept across emitters and packets: the interpolator (built on
	// first use, Reset per emitter), the scaled and flushed emitter, and its
	// upsampled form.
	up    *dsp.Upsampler
	upFac int // the factor up was built for
	sig   []complex128
	hi    []complex128
}

// NewComposer creates a composer with the given oversampling factor over a
// 20 MHz native rate.
func NewComposer(oversample int) (*Composer, error) {
	if oversample < 1 {
		return nil, fmt.Errorf("channel: oversample factor %d < 1", oversample)
	}
	return &Composer{Oversample: oversample, NativeRateHz: 20e6}, nil
}

// CompositeRateHz returns the sample rate of composed waveforms.
func (c *Composer) CompositeRateHz() float64 {
	return c.NativeRateHz * float64(c.Oversample)
}

// MinOversample returns the smallest integer oversampling factor that keeps
// an emitter at the given carrier offset (with ~18 MHz occupied bandwidth)
// inside the Nyquist band of the composite rate.
func MinOversample(maxOffsetHz float64) int {
	need := (math.Abs(maxOffsetHz) + 10e6) * 2 // edge of occupied band, two-sided
	f := int(math.Ceil(need / 20e6))
	if f < 1 {
		f = 1
	}
	return f
}

// flushNative returns the number of extra native-rate zero samples appended
// to each emitter so the interpolation filter's tail (its group delay) is
// fully flushed into the composite instead of truncated.
func (c *Composer) flushNative() int {
	if c.Oversample == 1 {
		return 0
	}
	// Default interpolator length is 48*os+1 taps at the composite rate.
	taps := 48*c.Oversample + 1
	return (taps + c.Oversample - 1) / c.Oversample
}

// Compose builds the composite received waveform. Each emitter is scaled to
// its received power, upsampled to the composite rate (with the
// interpolation filter fully flushed so no emitter loses its tail),
// frequency shifted to its carrier offset, and summed. The composite length
// covers the longest emitter (delay and filter flush included).
func (c *Composer) Compose(emitters []Emitter) ([]complex128, error) {
	return c.ComposeInto(nil, emitters)
}

// ComposeInto is Compose writing the composite into dst (grown if its
// capacity is short, reused otherwise), the allocation-free form for callers
// that carry a buffer across packets.
func (c *Composer) ComposeInto(dst []complex128, emitters []Emitter) ([]complex128, error) {
	if len(emitters) == 0 {
		return nil, fmt.Errorf("channel: no emitters")
	}
	fs := c.CompositeRateHz()
	flush := c.flushNative()
	maxLen := 0
	for i, e := range emitters {
		if len(e.Samples) == 0 {
			return nil, fmt.Errorf("channel: emitter %d is empty", i)
		}
		if need := math.Abs(e.OffsetHz) + 10e6; need > fs/2 {
			return nil, fmt.Errorf("channel: emitter %d at %+.0f Hz exceeds Nyquist band +-%.0f Hz (oversample more)",
				i, e.OffsetHz, fs/2)
		}
		if l := (e.DelaySamples + len(e.Samples) + flush) * c.Oversample; l > maxLen {
			maxLen = l
		}
	}
	if cap(dst) < maxLen {
		dst = make([]complex128, maxLen)
	}
	out := dst[:maxLen]
	for i := range out {
		out[i] = 0
	}
	if c.Oversample > 1 && (c.up == nil || c.upFac != c.Oversample) {
		up, err := dsp.NewUpsampler(c.Oversample, 0)
		if err != nil {
			return nil, err
		}
		c.up, c.upFac = up, c.Oversample
	}
	for _, e := range emitters {
		need := len(e.Samples) + flush
		if cap(c.sig) < need {
			c.sig = make([]complex128, 0, need)
		}
		sig := append(c.sig[:0], e.Samples...)
		units.SetPowerDBm(sig, e.PowerDBm)
		hi := sig
		if c.Oversample > 1 {
			// Factor-1 upsampling is the identity (and flush is 0), so only
			// a real factor runs the interpolator. The previous emitter's
			// flush zeros already left its history clean; Reset keeps each
			// emitter's start from depending on the flush length.
			sig = sig[:need]
			clear(sig[len(e.Samples):])
			c.up.Reset()
			c.hi = c.up.ProcessInto(c.hi[:0], sig)
			hi = c.hi
		}
		c.sig = sig
		if e.OffsetHz != 0 {
			osc := dsp.NewOscillator(e.OffsetHz/fs, 0)
			osc.MixInto(hi)
		}
		start := e.DelaySamples * c.Oversample
		for i, v := range hi {
			if start+i < len(out) {
				out[start+i] += v
			}
		}
	}
	return out, nil
}
