package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
)

// resamplerDesign is the immutable lowpass shared by every resampler of one
// (factor, taps): the windowed-sinc taps cut at the narrower Nyquist, and
// their overlap-save spectrum when the tap set is long enough to use one.
// A resampler built on it owns only its filter history and scratch.
type resamplerDesign struct {
	taps []float64
	spec *olsSpectrum // nil below olsMinTaps: such filters never run overlap-save
}

type resamplerKey struct{ factor, taps int }

// resamplerDesigns holds one design per (factor, taps), built once per
// process. The program builds only a few interpolators and decimators (the
// composite's default per factor, the co-sim's solver-rate upsampler, the
// spectrum tools' 4x), so the map stays small. A lost race at worst builds
// a duplicate that the map discards.
var resamplerDesigns sync.Map // resamplerKey -> *resamplerDesign

// resamplerFilter returns a lowpass with fresh streaming state for a
// resampler by factor (> 1) with the given tap count, on the shared design.
func resamplerFilter(factor, taps int) (*FIR, error) {
	key := resamplerKey{factor, taps}
	v, ok := resamplerDesigns.Load(key)
	if !ok {
		// Cut at the original Nyquist, i.e. 0.5/factor of the faster rate.
		f, err := DesignLowpassFIR(taps, 0.5/float64(factor), Blackman)
		if err != nil {
			return nil, err
		}
		d := &resamplerDesign{taps: f.taps}
		if taps >= olsMinTaps {
			d.spec = newOLSSpectrumReal(f.taps)
		}
		v, _ = resamplerDesigns.LoadOrStore(key, d)
	}
	d := v.(*resamplerDesign)
	f := &FIR{taps: d.taps, hist: make([]complex128, len(d.taps)-1)}
	if d.spec != nil {
		f.ols = newOLSConv(d.spec)
	}
	return f, nil
}

// Upsampler increases the sample rate by an integer factor using zero
// stuffing followed by an anti-imaging lowpass filter.
//
// Besides the whole-frame Process/ProcessInto, the upsampler streams: Begin
// starts a frame and each Next returns the following block of the
// upsampled signal. Streaming never materializes the zero-stuffed frame;
// for long tap sets each overlap-save segment is built straight from the
// input samples and the filter history. Both forms produce the same samples
// and advance the same filter state.
type Upsampler struct {
	factor int
	filter *FIR

	// Streaming state of the frame begun by Begin.
	x    []complex128
	next int          // index of the next output sample
	blk  []complex128 // direct-path block scratch, reused across frames
}

// NewUpsampler builds an upsampler for the given integer factor. taps sets
// the anti-imaging filter length (per output rate); 0 selects a default.
// Upsamplers of one (factor, taps) share the filter design, built on the
// first call; each owns only its stream state.
func NewUpsampler(factor, taps int) (*Upsampler, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: upsample factor %d < 1", factor)
	}
	if taps == 0 {
		// Long enough that the transition band stays between the 802.11a
		// occupied bandwidth (0.415 of the original Nyquist) and its first
		// image — short interpolators leak images that alias back in-band
		// after unfiltered decimation downstream.
		taps = 48*factor + 1
	}
	u := &Upsampler{factor: factor}
	if factor > 1 {
		var err error
		if u.filter, err = resamplerFilter(factor, taps); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Reset clears the filter state.
func (u *Upsampler) Reset() {
	if u.filter != nil {
		u.filter.Reset()
	}
}

// Process returns the upsampled signal (len(x)*factor samples). Zero stuffing
// loses a factor of `factor` in amplitude, which the interpolation filter
// compensates by an equal gain so the waveform amplitude is preserved.
func (u *Upsampler) Process(x []complex128) []complex128 {
	return u.ProcessInto(make([]complex128, 0, len(x)*u.factor), x)
}

// ProcessInto appends the upsampled signal to dst and returns it, reusing
// dst's capacity — the allocation-free form of Process for callers that
// carry a buffer across packets.
func (u *Upsampler) ProcessInto(dst, x []complex128) []complex128 {
	dst = slices.Grow(dst, len(x)*u.factor)
	u.Begin(x)
	for blk := u.Next(); blk != nil; blk = u.Next() {
		dst = append(dst, blk...)
	}
	return dst
}

// Begin starts streaming the upsampled form of x (len(x)*factor samples).
// The caller then drains the frame with Next; x must stay unchanged until
// Next has returned nil.
func (u *Upsampler) Begin(x []complex128) {
	u.x = x
	u.next = 0
}

// Next returns the next block of the frame begun by Begin, or nil once the
// frame is complete. A block stays valid until the following Next or Begin
// call and must not be modified. Long frames come in blocks of exactly the
// split the filter's overlap-save engine uses; a frame too short for it (or
// an upsampler with a short filter) comes as one block.
//
//lint:hotpath
func (u *Upsampler) Next() []complex128 {
	total := len(u.x) * u.factor
	if u.next >= total {
		u.x = nil
		return nil
	}
	f := u.filter
	if f == nil {
		u.next = total
		return u.x
	}
	if !olsUsable(len(f.taps), total) {
		if cap(u.blk) < total {
			//lint:ignore escape one-time scratch grow, amortized across frames
			u.blk = make([]complex128, total)
		}
		blk := u.blk[:total]
		for i := range blk {
			blk[i] = 0
		}
		u.stuff(blk, 0)
		f.Process(blk)
		u.next = total
		return blk
	}
	c := f.ols
	start := u.next
	cnt := total - start
	if cnt > c.l {
		cnt = c.l
	}
	// The segment is ext[start : start+n] of the extended frame FIR.Process
	// would build (history, then the zero-stuffed frame, then zero padding).
	// Only its samples on the stuffing grid can be nonzero: the history lies
	// on the same grid, since every frame is a whole number of factor-sample
	// periods and the history starts out zero. With a power-of-two factor
	// dividing n the block takes just those samples; otherwise the whole
	// segment.
	p := len(f.hist)
	if fac := u.factor; fac&(fac-1) == 0 && fac <= c.n {
		phase := ((p-start)%fac + fac) % fac
		u.gather(c.seg[:c.n/fac], start+phase)
		c.block(fac, phase)
	} else {
		seg := c.seg
		for i := range seg {
			seg[i] = 0
		}
		if start < p {
			copy(seg, f.hist[start:])
		}
		u.stuff(seg, start-p)
		c.block(1, 0)
	}
	u.next += cnt
	if u.next == total {
		u.advanceHistory()
	}
	return c.seg[p : p+cnt]
}

// gather writes the extended-frame samples e0, e0+factor, ... into dst,
// where e0 lies on the stuffing grid: history samples, then gain-
// compensated frame samples, then the zero padding past the frame.
func (u *Upsampler) gather(dst []complex128, e0 int) {
	hist := u.filter.hist
	f := u.factor
	i := 0
	for ; i < len(dst) && e0+f*i < len(hist); i++ {
		dst[i] = hist[e0+f*i]
	}
	g := complex(float64(f), 0)
	for q := (e0 + f*i - len(hist)) / f; i < len(dst) && q < len(u.x); i, q = i+1, q+1 {
		dst[i] = u.x[q] * g
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
}

// stuff writes the zero-stuffed, gain-compensated frame samples that fall in
// dst, where dst[0] is stuffed-frame sample off (which may be negative).
// Positions between the stuffed samples are left as they are.
func (u *Upsampler) stuff(dst []complex128, off int) {
	g := complex(float64(u.factor), 0)
	i := 0
	if off > 0 {
		i = (off + u.factor - 1) / u.factor
	}
	for ; i < len(u.x); i++ {
		k := i*u.factor - off
		if k >= len(dst) {
			break
		}
		dst[k] = u.x[i] * g
	}
}

// advanceHistory leaves the filter history holding the last taps-1 samples
// of the extended frame, as FIR.Process does after a frame. Only the
// overlap-save path calls it, and its frames (at least 2×taps samples) are
// longer than the history, so the history is all new frame samples.
func (u *Upsampler) advanceHistory() {
	hist := u.filter.hist
	for i := range hist {
		hist[i] = 0
	}
	u.stuff(hist, len(u.x)*u.factor-len(hist))
}

// Downsampler reduces the sample rate by an integer factor with an
// anti-aliasing lowpass filter ahead of the decimation.
type Downsampler struct {
	factor int
	filter *FIR
	phase  int
	buf    []complex128 // block-filtering scratch, reused across frames
}

// NewDownsampler builds a decimator for the given integer factor. taps sets
// the anti-aliasing filter length; 0 selects a default. If filtered is false
// the decimator picks raw samples (used to model deliberate aliasing, e.g.
// an ADC sampling an insufficiently filtered signal). Like upsamplers,
// decimators of one (factor, taps) share the filter design.
func NewDownsampler(factor, taps int, filtered bool) (*Downsampler, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: downsample factor %d < 1", factor)
	}
	d := &Downsampler{factor: factor}
	if factor > 1 && filtered {
		if taps == 0 {
			taps = 48*factor + 1
		}
		var err error
		if d.filter, err = resamplerFilter(factor, taps); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Reset clears the filter state and decimation phase.
func (d *Downsampler) Reset() {
	if d.filter != nil {
		d.filter.Reset()
	}
	d.phase = 0
}

// Process returns the decimated signal. The decimation phase persists across
// calls so frame boundaries do not disturb the output grid.
func (d *Downsampler) Process(x []complex128) []complex128 {
	return d.ProcessInto(make([]complex128, 0, len(x)/d.factor+1), x)
}

// ProcessInto appends the decimated signal to dst and returns it, reusing
// dst's capacity. The anti-aliasing filter runs block-wise over the frame
// (x itself is left untouched), and the decimation phase persists across
// calls so frame boundaries do not disturb the output grid.
func (d *Downsampler) ProcessInto(dst, x []complex128) []complex128 {
	y := x
	if d.filter != nil {
		if cap(d.buf) < len(x) {
			d.buf = make([]complex128, len(x))
		}
		y = d.buf[:len(x)]
		copy(y, x)
		d.filter.Process(y)
	}
	if d.factor == 1 {
		return append(dst, y...)
	}
	for _, v := range y {
		if d.phase == 0 {
			dst = append(dst, v)
		}
		d.phase++
		if d.phase == d.factor {
			d.phase = 0
		}
	}
	return dst
}

// Oscillator is a numerically controlled oscillator producing
// exp(i*(2*pi*nu*n + phase0)) used for frequency shifting. The phase persists
// across frames.
type Oscillator struct {
	step  complex128
	state complex128
}

// NewOscillator creates an oscillator at normalized frequency nu (cycles per
// sample, may be negative) and initial phase in radians.
func NewOscillator(nu, phase float64) *Oscillator {
	// Small enough to inline, so a caller's oscillator that does not
	// outlive the call stays off the heap.
	o := new(Oscillator)
	o.tune(nu, phase)
	return o
}

func (o *Oscillator) tune(nu, phase float64) {
	o.step = cmplx.Exp(complex(0, 2*math.Pi*nu))
	o.state = cmplx.Exp(complex(0, phase))
}

// Next returns the current oscillator sample and advances the phase.
func (o *Oscillator) Next() complex128 {
	v := o.state
	o.state *= o.step
	// Renormalize occasionally to counter numeric drift. The squared
	// magnitude screens out the per-sample hypot: with s within
	// (0.9999985, 1.0000015), sqrt(s) — and the correctly-rounded
	// cmplx.Abs, at most a few ulps away — is strictly inside the
	// (0.999999, 1.000001) no-renormalization band (the squared bounds are
	// 0.999998..., 1.000002...), so the old path would leave the state
	// untouched and skipping it is bit-exact. The band is ~7e-7 wide per
	// side, nine orders above the comparison's rounding error.
	re, im := real(o.state), imag(o.state)
	if s := re*re + im*im; s < 0.9999985 || s > 1.0000015 {
		if m := cmplx.Abs(o.state); m < 0.999999 || m > 1.000001 {
			o.state /= complex(m, 0)
		}
	}
	return v
}

// MixInto multiplies x in place by the oscillator output and returns x
// (a complex frequency shift by +nu cycles per sample).
func (o *Oscillator) MixInto(x []complex128) []complex128 {
	for i := range x {
		x[i] *= o.Next()
	}
	return x
}
