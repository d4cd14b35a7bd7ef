package analog

import (
	"fmt"
	"math"
	"math/rand"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// NewCTChebyshevLowpass builds a continuous-time type-I Chebyshev low-pass
// from second-order (and one first-order for odd orders) trapezoidal stages,
// with the passband edge at edgeHz.
func NewCTChebyshevLowpass(order int, edgeHz, rippleDB, sampleRateHz float64) (*CTCascade, error) {
	ch, err := newCTChebyshev(order, edgeHz, rippleDB, sampleRateHz)
	if err != nil {
		return nil, err
	}
	stages := make([]Stage, 0, len(ch.bq)+1)
	for k := range ch.bq {
		stages = append(stages, &ch.bq[k])
	}
	if ch.fo != nil {
		stages = append(stages, ch.fo)
	}
	return NewCTCascade(ch.gain, stages...), nil
}

// ctChebyshev is the concrete form of the Chebyshev ladder the front end
// steps without interface dispatch: the passband gain, the biquad sections
// and, for odd orders, the real-pole section last.
type ctChebyshev struct {
	gain float64
	bq   []CTBiquad
	fo   *CTFirstOrder
}

func newCTChebyshev(order int, edgeHz, rippleDB, sampleRateHz float64) (*ctChebyshev, error) {
	if order < 1 {
		return nil, fmt.Errorf("analog: filter order %d", order)
	}
	if edgeHz <= 0 || edgeHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("analog: edge %g Hz outside (0, fs/2)", edgeHz)
	}
	poles, eps := dsp.Chebyshev1AnalogPoles(order, rippleDB)
	wc := 2 * math.Pi * edgeHz
	ch := &ctChebyshev{gain: 1, bq: make([]CTBiquad, order/2)}
	// Pair conjugates (k and order-1-k); middle pole of odd orders is real.
	for k := range ch.bq {
		p := poles[k]
		re, im := real(p)*wc, imag(p)*wc
		a0 := re*re + im*im
		a1 := -2 * re
		// Unity DC gain per section: b0 = a0.
		st, err := NewCTBiquad(a0, 0, 0, a0, a1, sampleRateHz)
		if err != nil {
			return nil, err
		}
		ch.bq[k] = *st
	}
	if order%2 == 1 {
		p := real(poles[order/2]) * wc
		st, err := NewCTFirstOrder(-p, 0, -p, sampleRateHz)
		if err != nil {
			return nil, err
		}
		ch.fo = st
	} else {
		ch.gain = 1 / math.Sqrt(1+eps*eps)
	}
	return ch, nil
}

func (ch *ctChebyshev) reset() {
	for k := range ch.bq {
		ch.bq[k].Reset()
	}
	if ch.fo != nil {
		ch.fo.Reset()
	}
}

// CTNonlinearAmp is a memoryless passband amplifier with a third-order
// nonlinearity and hard clipping, acting on the real RF waveform (the analog
// solver's LNA).
type CTNonlinearAmp struct {
	g     float64
	a3    float64 // negative for compression
	vClip float64 // output clip level
	noise *rand.Rand
	nsig  float64
	seed  int64
}

// NewCTNonlinearAmp builds the LNA: gainDB small-signal power gain, input
// 1 dB compression point (dBm, tone power), optional thermal noise with the
// given noise figure over the solver bandwidth.
func NewCTNonlinearAmp(gainDB, compressionDBm, noiseFigureDB, sampleRateHz float64, seed int64, enableNoise bool) (*CTNonlinearAmp, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("analog: amplifier sample rate %g", sampleRateHz)
	}
	a := &CTNonlinearAmp{g: units.DBToVoltageGain(gainDB), seed: seed}
	// Passband cubic: y = a1 v + a3 v^3. For a tone of peak amplitude A the
	// fundamental gain is a1 + (3/4) a3 A^2. 1 dB compression at tone power
	// P1 (A^2 = 2 P1): (3/4)|a3| 2 P1 = a1 (1 - 10^(-1/20)).
	p1 := units.DBmToWatts(compressionDBm)
	k := 1 - units.DBToVoltageGain(-1.0)
	a.a3 = -a.g * k / (1.5 * p1)
	// Clip where the cubic's slope reaches zero: v = sqrt(a1/(3|a3|)).
	vc := math.Sqrt(a.g / (3 * math.Abs(a.a3)))
	a.vClip = a.g*vc + a.a3*vc*vc*vc
	if enableNoise && noiseFigureDB > 0 {
		f := units.DBToLinear(noiseFigureDB)
		a.nsig = math.Sqrt(units.Boltzmann * units.RoomTemperature * (f - 1) * sampleRateHz / 2)
		a.noise = rand.New(rand.NewSource(seed))
	}
	return a, nil
}

// Step amplifies one passband sample.
func (a *CTNonlinearAmp) Step(v float64) float64 {
	if a.noise != nil {
		v += a.noise.NormFloat64() * a.nsig
	}
	y := a.g*v + a.a3*v*v*v
	if y > a.vClip {
		y = a.vClip
	} else if y < -a.vClip {
		y = -a.vClip
	}
	return y
}

// Reset reseeds the noise source in place (the same stream a fresh
// rand.New(rand.NewSource(seed)) draws, without allocating).
func (a *CTNonlinearAmp) Reset() {
	if a.noise != nil {
		a.noise.Seed(a.seed)
	}
}

// CTOscillator generates the LO waveform cos(2 pi f t + phi(t)) with Wiener
// phase noise.
type CTOscillator struct {
	w, h  float64
	phase float64
	t     float64
	sigma float64
	rng   *rand.Rand // nil for a zero-linewidth (noiseless) oscillator
	seed  int64
}

// NewCTOscillator builds an oscillator at freqHz with the given Lorentzian
// linewidth.
func NewCTOscillator(freqHz, linewidthHz, sampleRateHz float64, seed int64) (*CTOscillator, error) {
	if sampleRateHz <= 0 || freqHz < 0 || linewidthHz < 0 {
		return nil, fmt.Errorf("analog: oscillator parameters invalid")
	}
	o := &CTOscillator{
		w: 2 * math.Pi * freqHz, h: 1 / sampleRateHz,
		sigma: math.Sqrt(2 * math.Pi * linewidthHz / sampleRateHz),
		seed:  seed,
	}
	if o.sigma > 0 {
		o.rng = rand.New(rand.NewSource(seed))
	}
	return o, nil
}

// Next returns cos and -sin of the current LO phase and advances time.
func (o *CTOscillator) Next() (cosv, msinv float64) {
	ph := o.w*o.t + o.phase
	o.t += o.h
	if o.rng != nil {
		o.phase += o.rng.NormFloat64() * o.sigma
	}
	return math.Cos(ph), -math.Sin(ph)
}

// fillCos writes the next len(c) LO samples' cosines to c, advancing the
// trajectory exactly as len(c) Next calls would.
//
//lint:hotpath
func (o *CTOscillator) fillCos(c []float64) {
	t, phase := o.t, o.phase
	for k := range c {
		ph := o.w*t + phase
		t += o.h
		if o.rng != nil {
			phase += o.rng.NormFloat64() * o.sigma
		}
		c[k] = math.Cos(ph)
	}
	o.t, o.phase = t, phase
}

// fillCosMSin writes the next len(c) LO samples' cos and -sin to c and ms
// (math.Sincos computes both bit-identically to math.Cos and math.Sin).
//
//lint:hotpath
func (o *CTOscillator) fillCosMSin(c, ms []float64) {
	t, phase := o.t, o.phase
	ms = ms[:len(c)]
	for k := range c {
		ph := o.w*t + phase
		t += o.h
		if o.rng != nil {
			phase += o.rng.NormFloat64() * o.sigma
		}
		sn, cs := math.Sincos(ph)
		c[k], ms[k] = cs, -sn
	}
	o.t, o.phase = t, phase
}

// Reset restarts the trajectory, reseeding the phase noise in place.
func (o *CTOscillator) Reset() {
	o.t, o.phase = 0, 0
	if o.rng != nil {
		o.rng.Seed(o.seed)
	}
}

// FrontEndConfig parameterizes the analog co-simulation receiver.
type FrontEndConfig struct {
	// InputRateHz is the complex-baseband rate of the incoming composite
	// signal (20 MHz when no interferers are modeled).
	InputRateHz float64
	// SolverOversample is the analog step-rate multiplier over InputRateHz
	// (default 32). The scaled RF carrier sits at SolverRate/4.
	SolverOversample int
	// LNAGainDB, LNACompressionDBm, LNANoiseFigureDB configure the LNA.
	LNAGainDB         float64
	LNACompressionDBm float64
	LNANoiseFigureDB  float64
	// DCBlockCornerHz is the inter-stage RC high-pass corner.
	DCBlockCornerHz float64
	// LOLinewidthHz adds phase noise to both conversions.
	LOLinewidthHz float64
	// IQGainImbalanceDB and IQPhaseErrorDeg skew the second (quadrature)
	// conversion's Q rail, creating the finite image rejection of a real
	// I/Q demodulator.
	IQGainImbalanceDB float64
	IQPhaseErrorDeg   float64
	// DCOffsetDBm injects a static self-mixing DC term at the quadrature
	// mixer output when EnableDC is set.
	DCOffsetDBm float64
	EnableDC    bool
	// ChannelFilterOrder/EdgeHz/RippleDB configure the baseband Chebyshev.
	ChannelFilterOrder    int
	ChannelFilterEdgeHz   float64
	ChannelFilterRippleDB float64
	// OutputGainDB scales the baseband output (fixed gain; the system-level
	// AGC/ADC stay in the digital domain for the co-simulation flow).
	OutputGainDB float64
	// EnableNoise turns the solver's noise sources on. The real AMS
	// Designer could NOT run its noise functions in transient analysis
	// (§4.3) — the default false reproduces that artifact; setting it true
	// models the suggested Verilog-AMS random-function workaround.
	EnableNoise bool
	// Seed seeds all stochastic elements.
	Seed int64
}

// DefaultFrontEndConfig mirrors rf.DefaultReceiverConfig for the analog
// solver at the native 20 MHz input rate.
func DefaultFrontEndConfig() FrontEndConfig {
	return FrontEndConfig{
		InputRateHz:           20e6,
		SolverOversample:      32,
		LNAGainDB:             18,
		LNACompressionDBm:     -10,
		LNANoiseFigureDB:      2.5,
		DCBlockCornerHz:       150e3,
		LOLinewidthHz:         50,
		ChannelFilterOrder:    5,
		ChannelFilterEdgeHz:   9.5e6,
		ChannelFilterRippleDB: 0.5,
		OutputGainDB:          15,
		Seed:                  1,
	}
}

// FrontEnd is the analog co-simulated double-conversion receiver. It
// implements the same FrontEnd contract as rf.Receiver: complex baseband
// composite in, 20 MHz complex baseband out.
type FrontEnd struct {
	cfg     FrontEndConfig
	fs      float64 // solver rate
	fc      float64 // scaled RF carrier
	lna     *CTNonlinearAmp
	lo1     *CTOscillator
	lo2     *CTOscillator
	hpf     *CTFirstOrder
	lpfI    *ctChebyshev
	lpfQ    *ctChebyshev
	qGain   float64 // Q-rail amplitude skew (I/Q imbalance)
	qCos    float64 // cos of the Q-rail phase error
	qSin    float64 // sin of the Q-rail phase error
	dc      float64 // self-mixing DC amplitude on the I rail
	outGain float64
	up      *dsp.Upsampler
	carrier *CTOscillator // up-conversion carrier
	decim   int
	phase   int

	// LO bank, computed one block ahead of the solver by a helper
	// goroutine per Process call (see Process).
	lo     [2]loBlock
	loFree chan *loBlock // blocks ready to be refilled
	loFull chan *loBlock // filled blocks, in frame order
	loJob  chan loJob    // the frame handed to the helper
	loDone chan struct{} // the helper has handed over its last block
	runLO  func()        // fe.fillAhead, bound once: go runLO() does not allocate
}

// loJob describes one frame's LO bank: steps solver samples in blocks of
// block (the last block may be shorter).
type loJob struct{ steps, block int }

// loBlock holds one solver block of the LO bank. None of it depends on the
// input signal.
type loBlock struct {
	c, ms []float64 // up-conversion carrier: cos and -sin
	c1    []float64 // first LO: cos
	c2    []float64 // second LO: cos (I rail)
	msk   []float64 // second LO: skewed -sin (Q rail)
}

// fillLO computes the next n samples of every oscillator into b, growing
// its buffers on first use. The Q rail's -sin(ph+theta) is formed here as
// ms2*cos(theta) - c2*sin(theta).
//
//lint:hotpath
func (fe *FrontEnd) fillLO(b *loBlock, n int) {
	if cap(b.c) < n {
		//lint:ignore escape one-time block buffers, reused across blocks and frames
		buf := make([]float64, 5*n)
		b.c, b.ms, b.c1, b.c2, b.msk = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:4*n:4*n], buf[4*n:]
	}
	b.c, b.ms, b.c1, b.c2, b.msk = b.c[:n], b.ms[:n], b.c1[:n], b.c2[:n], b.msk[:n]
	fe.carrier.fillCosMSin(b.c, b.ms)
	fe.lo1.fillCos(b.c1)
	fe.lo2.fillCosMSin(b.c2, b.msk)
	qCos, qSin := fe.qCos, fe.qSin
	c2 := b.c2
	for k, ms2 := range b.msk {
		b.msk[k] = ms2*qCos - c2[k]*qSin
	}
}

// NewFrontEnd assembles the analog receiver.
func NewFrontEnd(cfg FrontEndConfig) (*FrontEnd, error) {
	if cfg.InputRateHz <= 0 {
		return nil, fmt.Errorf("analog: input rate %g", cfg.InputRateHz)
	}
	if cfg.SolverOversample == 0 {
		cfg.SolverOversample = 32
	}
	if cfg.SolverOversample < 8 {
		return nil, fmt.Errorf("analog: solver oversample %d too small for the frequency plan", cfg.SolverOversample)
	}
	fe := &FrontEnd{cfg: cfg}
	fe.fs = cfg.InputRateHz * float64(cfg.SolverOversample)
	fe.fc = fe.fs / 4
	var err error
	if fe.lna, err = NewCTNonlinearAmp(cfg.LNAGainDB, cfg.LNACompressionDBm,
		cfg.LNANoiseFigureDB, fe.fs, cfg.Seed+1, cfg.EnableNoise); err != nil {
		return nil, err
	}
	if fe.lo1, err = NewCTOscillator(fe.fc/2, cfg.LOLinewidthHz, fe.fs, cfg.Seed+2); err != nil {
		return nil, err
	}
	if fe.lo2, err = NewCTOscillator(fe.fc/2, cfg.LOLinewidthHz, fe.fs, cfg.Seed+3); err != nil {
		return nil, err
	}
	if cfg.DCBlockCornerHz > 0 {
		if fe.hpf, err = NewRCHighpass(cfg.DCBlockCornerHz, fe.fs); err != nil {
			return nil, err
		}
	}
	if cfg.ChannelFilterOrder > 0 {
		if fe.lpfI, err = newCTChebyshev(cfg.ChannelFilterOrder,
			cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fe.fs); err != nil {
			return nil, err
		}
		if fe.lpfQ, err = newCTChebyshev(cfg.ChannelFilterOrder,
			cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fe.fs); err != nil {
			return nil, err
		}
	}
	fe.qGain = units.DBToVoltageGain(cfg.IQGainImbalanceDB)
	theta := cfg.IQPhaseErrorDeg * math.Pi / 180
	fe.qCos, fe.qSin = math.Cos(theta), math.Sin(theta)
	if cfg.EnableDC {
		fe.dc = units.DBmToAmplitude(cfg.DCOffsetDBm)
	}
	fe.outGain = units.DBToVoltageGain(cfg.OutputGainDB)
	// A moderate interpolator suffices here: the envelope entering the
	// solver is already band-limited and the channel-select Chebyshev
	// removes interpolation images after downconversion. (The sharp
	// default interpolator would triple the per-step cost.)
	if fe.up, err = dsp.NewUpsampler(cfg.SolverOversample, 16*cfg.SolverOversample+1); err != nil {
		return nil, err
	}
	if fe.carrier, err = NewCTOscillator(fe.fc, 0, fe.fs, 0); err != nil {
		return nil, err
	}
	fe.decim = cfg.SolverOversample
	// Both hand-over channels hold every LO block, so no send blocks.
	fe.loFree = make(chan *loBlock, len(fe.lo))
	fe.loFull = make(chan *loBlock, len(fe.lo))
	fe.loJob = make(chan loJob, 1)
	fe.loDone = make(chan struct{}, 1)
	for k := range fe.lo {
		fe.loFree <- &fe.lo[k]
	}
	fe.runLO = fe.fillAhead
	return fe, nil
}

// SolverRateHz returns the analog integration rate.
func (fe *FrontEnd) SolverRateHz() float64 { return fe.fs }

// ScaledCarrierHz returns the scaled RF carrier used by the solver
// (stands in for the 5.2 GHz carrier of the real design).
func (fe *FrontEnd) ScaledCarrierHz() float64 { return fe.fc }

// Process runs the composite baseband frame through the analog receiver and
// returns the baseband output at the input rate (20 MHz for native input).
//
// The solver streams the frame in the upsampler's blocks and steps every
// circuit stage sample by sample in one loop per block: up-conversion to the
// scaled RF carrier, LNA, first conversion, DC block, quadrature conversion,
// the channel-select Chebyshev per rail, output gain and sampling at the
// input rate. The LO bank (carrier, first and second LO) does not depend on
// the input, so a helper goroutine computes it one block ahead, handing
// blocks over on channels; Process returns only after the helper has
// finished. The output is bit-identical to stepping every stage per sample.
func (fe *FrontEnd) Process(x []complex128) []complex128 {
	out := make([]complex128, 0, len(x))
	fe.up.Begin(x)
	fe.loJob <- loJob{steps: len(x) * fe.decim, block: fe.up.BlockLen()}
	go fe.runLO()
	for env := fe.up.Next(); env != nil; env = fe.up.Next() {
		lo := <-fe.loFull
		out = fe.solveBlock(out, env, lo)
		fe.loFree <- lo
	}
	<-fe.loDone
	return out
}

// fillAhead is the LO helper of one Process call: it fills the frame's LO
// blocks in order, as fast as the solver frees buffers, then signals loDone.
//
//lint:hotpath
func (fe *FrontEnd) fillAhead() {
	job := <-fe.loJob
	for start := 0; start < job.steps; start += job.block {
		b := <-fe.loFree
		fe.fillLO(b, min(job.block, job.steps-start))
		fe.loFull <- b
	}
	fe.loDone <- struct{}{}
}

// solveBlock steps the circuit over one block of the interpolated envelope
// with the block's LO samples and appends the decimated output to out.
//
//lint:hotpath
func (fe *FrontEnd) solveBlock(out, env []complex128, lo *loBlock) []complex128 {
	const s2 = math.Sqrt2
	c, ms, c1, c2, msk := lo.c[:len(env)], lo.ms[:len(env)], lo.c1[:len(env)], lo.c2[:len(env)], lo.msk[:len(env)]
	lna, hpf, lpfI, lpfQ := fe.lna, fe.hpf, fe.lpfI, fe.lpfQ
	dc, qGain, outGain := fe.dc, fe.qGain, fe.outGain
	phase, decim := fe.phase, fe.decim
	var bqI, bqQ []CTBiquad
	if lpfI != nil {
		bqI, bqQ = lpfI.bq, lpfQ.bq[:len(lpfI.bq)]
	}
	for k, e := range env {
		// Up-convert to the scaled RF carrier: sqrt2*Re{e * exp(+jwt)}.
		v := s2 * (real(e)*c[k] - imag(e)*(-ms[k]))

		// LNA (nonlinear, noisy) on the RF waveform.
		v = lna.Step(v)

		// First conversion: x2 cos at fc/2 -> IF at fc/2 (+ image at
		// 3fc/2, removed later by the channel filter).
		v *= 2 * c1[k]

		// Inter-stage DC block.
		if hpf != nil {
			v = hpf.Step(v)
		}

		// Second conversion to quadrature baseband; the Q rail carries the
		// configured amplitude and phase skew.
		i := v*s2*c2[k] + dc
		q := v * s2 * msk[k] * qGain

		// Channel-select Chebyshev low-pass per rail, the two rails'
		// sections interleaved.
		if lpfI != nil {
			i *= lpfI.gain
			q *= lpfQ.gain
			for s := range bqI {
				i = bqI[s].Step(i)
				q = bqQ[s].Step(q)
			}
			if lpfI.fo != nil {
				i = lpfI.fo.Step(i)
				q = lpfQ.fo.Step(q)
			}
		}

		// Output amplifier and ADC sampling at the input rate.
		if phase == 0 {
			out = append(out, complex(i*outGain, q*outGain))
		}
		phase++
		if phase == decim {
			phase = 0
		}
	}
	fe.phase = phase
	return out
}

// Reset clears every stage.
func (fe *FrontEnd) Reset() {
	fe.lna.Reset()
	fe.lo1.Reset()
	fe.lo2.Reset()
	if fe.hpf != nil {
		fe.hpf.Reset()
	}
	if fe.lpfI != nil {
		fe.lpfI.reset()
		fe.lpfQ.reset()
	}
	fe.up.Reset()
	fe.carrier.Reset()
	fe.phase = 0
}
