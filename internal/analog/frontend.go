package analog

import (
	"fmt"
	"math"
	"slices"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
	"wlansim/internal/randutil"
	"wlansim/internal/units"
)

// ctChebyshev is the concrete form of the Chebyshev ladder: the passband
// gain, the biquad sections and, for odd orders, the real-pole section
// last. The front end copies its coefficients into the circuit recurrence's
// kernels.CTSolver; the tests' NewCTChebyshevLowpass wraps it in a CTCascade.
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

// CTNonlinearAmp is a memoryless passband amplifier with a third-order
// nonlinearity and hard clipping, acting on the real RF waveform (the analog
// solver's LNA).
type CTNonlinearAmp struct {
	g     float64
	a3    float64 // negative for compression
	vClip float64 // output clip level
	noise *randutil.Rand
	nsig  float64
}

// NewCTNonlinearAmp builds the LNA: gainDB small-signal power gain, input
// 1 dB compression point (dBm, tone power), optional thermal noise with the
// given noise figure over the solver bandwidth.
func NewCTNonlinearAmp(gainDB, compressionDBm, noiseFigureDB, sampleRateHz float64, seed int64, enableNoise bool) (*CTNonlinearAmp, error) {
	if !allFinite(gainDB, compressionDBm, noiseFigureDB, sampleRateHz) {
		return nil, fmt.Errorf("analog: amplifier parameters not finite")
	}
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("analog: amplifier sample rate %g", sampleRateHz)
	}
	a := &CTNonlinearAmp{g: units.DBToVoltageGain(gainDB)}
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
		a.noise = randutil.NewRandDirect(seed)
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

// Reset rewinds the noise source to its seeded state, restarting the
// stream a fresh rand.New(rand.NewSource(seed)) draws.
func (a *CTNonlinearAmp) Reset() {
	if a.noise != nil {
		a.noise.Rewind()
	}
}

// CTOscillator generates the LO waveform cos(2 pi f t + phi(t)) with Wiener
// phase noise.
type CTOscillator struct {
	w, h  float64
	phase float64
	t     float64
	sigma float64
	rng   *randutil.Rand // nil for a zero-linewidth (noiseless) oscillator
}

// NewCTOscillator builds an oscillator at freqHz with the given Lorentzian
// linewidth.
func NewCTOscillator(freqHz, linewidthHz, sampleRateHz float64, seed int64) (*CTOscillator, error) {
	if !allFinite(freqHz, linewidthHz, sampleRateHz) ||
		sampleRateHz <= 0 || freqHz < 0 || linewidthHz < 0 {
		return nil, fmt.Errorf("analog: oscillator parameters invalid")
	}
	o := &CTOscillator{
		w: 2 * math.Pi * freqHz, h: 1 / sampleRateHz,
		sigma: math.Sqrt(2 * math.Pi * linewidthHz / sampleRateHz),
	}
	if o.sigma > 0 {
		o.rng = randutil.NewRandDirect(seed)
	}
	return o, nil
}

// allFinite reports whether no value is NaN or ±Inf. The range checks of
// the constructors are comparisons, which NaN passes by failing them.
func allFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FrontEndConfig parameterizes the analog co-simulation receiver. ConfigFor
// derives its circuit parameters from the behavioral line-up,
// rf.ReceiverConfig; the I/Q imbalance, DC offset and solver fields are its
// own.
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

// FrontEnd is the analog co-simulated double-conversion receiver. It
// implements the same FrontEnd contract as rf.Receiver: complex baseband
// composite in, 20 MHz complex baseband out.
type FrontEnd struct {
	cfg  FrontEndConfig
	fs   float64 // solver rate
	fc   float64 // scaled RF carrier
	lna  *CTNonlinearAmp
	lo   loBank  // up-conversion carrier and both LOs
	qCos float64 // cos of the Q-rail phase error
	qSin float64 // sin of the Q-rail phase error
	up   *dsp.Upsampler

	// The circuit recurrence: the LNA, DC block, conversions, both rails of
	// the channel-select Chebyshev and the decimation, coefficients and
	// state, stepped by kernels.CTSolve. noise is the LNA's draw plane.
	solver kernels.CTSolver
	noise  []float64

	// Drive stage: a helper goroutine per Process call runs the upsampler
	// and the LO bank one block ahead of the solver (see Process). It owns
	// up, lo and the scratch planes while Process runs.
	drive     [2]driveBlock
	driveFree chan *driveBlock // blocks ready to be refilled
	driveFull chan *driveBlock // filled blocks in frame order, then nil
	frame     []complex128     // the frame handed to the drive stage
	ph, sn    []float64        // scratch: the first LO's phase, then a sine plane
	runDrive  func()           // fe.driveAhead, bound once: go runDrive() does not allocate
}

// loBank is the drive stage's three oscillators: the up-conversion carrier
// (at fc, noiseless) and the two LOs (at fc/2, each with its own Wiener
// phase noise). All three step h = 1/fs from t = 0, so one time t serves
// them, and the LOs share w*t. fillDrive advances them sample for sample as
// Next on the CTOscillators they are built from would.
type loBank struct {
	wc, w, h, sigma float64
	t               float64
	phase           [2]float64
	rng             [2]*randutil.Rand // nil for noiseless LOs
}

// newLOBank builds the carrier and the LOs as NewCTOscillator does, the
// LOs seeded seed+2 and seed+3.
func newLOBank(fc, linewidthHz, fs float64, seed int64) (loBank, error) {
	carrier, err := NewCTOscillator(fc, 0, fs, 0)
	if err != nil {
		return loBank{}, err
	}
	lo1, err := NewCTOscillator(fc/2, linewidthHz, fs, seed+2)
	if err != nil {
		return loBank{}, err
	}
	lo2, err := NewCTOscillator(fc/2, linewidthHz, fs, seed+3)
	if err != nil {
		return loBank{}, err
	}
	return loBank{wc: carrier.w, w: lo1.w, h: lo1.h, sigma: lo1.sigma,
		rng: [2]*randutil.Rand{lo1.rng, lo2.rng}}, nil
}

// reset restarts the time base and both LOs' phase noise.
func (o *loBank) reset() {
	o.t, o.phase = 0, [2]float64{}
	for _, r := range o.rng {
		if r != nil {
			r.Rewind()
		}
	}
}

// driveBlock holds one solver block of the circuit's drive: the RF input
// and the LO samples the circuit recurrence mixes it with. None of the LO
// planes depends on the input signal.
type driveBlock struct {
	v   []float64 // RF drive: the envelope up-converted to the scaled carrier
	c1  []float64 // first LO: cos
	c2  []float64 // second LO: cos (I rail)
	msk []float64 // second LO: skewed -sin (Q rail)
}

// growPlanes resizes each plane to n samples, carving all of them from one
// fresh buffer when any lacks the capacity.
func growPlanes(n int, planes ...*[]float64) {
	if cap(*planes[0]) < n {
		buf := make([]float64, len(planes)*n)
		for k, p := range planes {
			*p = buf[k*n : (k+1)*n : (k+1)*n]
		}
	}
	for _, p := range planes {
		*p = (*p)[:n]
	}
}

// fillDrive computes the drive of one envelope block into b: the
// up-converted RF input sqrt2*Re{e * exp(+jwt)}, the first LO's cosine and
// the second LO's two rails. The Q rail's -sin(ph+theta) is formed here as
// -sin(ph)*cos(theta) - cos(ph)*sin(theta).
//
// One pass over the time base writes the three phase planes: the carrier's
// to v, the first LO's to ph, the second's to msk, each overwritten once its
// Sincos has run.
//
//lint:hotpath
func (fe *FrontEnd) fillDrive(b *driveBlock, env []complex128) {
	const s2 = math.Sqrt2
	n := len(env)
	//lint:ignore escape one-time block buffers, reused across blocks and frames
	growPlanes(n, &b.v, &b.c1, &b.c2, &b.msk)
	//lint:ignore escape one-time scratch planes, reused across blocks and frames
	growPlanes(n, &fe.ph, &fe.sn)
	v, c1, c2, msk, ph, sn := b.v, b.c1[:n], b.c2[:n], b.msk[:n], fe.ph[:n], fe.sn[:n]
	o := &fe.lo
	// c1 and c2 hold the LOs' phase-noise increments until their Sincos
	// overwrites them. Each is 0 + draw*sigma, which differs from Next's
	// draw*sigma at most in the sign of a zero, and the accumulated phase
	// (never -0: it starts at +0) absorbs either zero alike; a noiseless LO
	// adds +0 and keeps its phase.
	if o.rng[0] != nil {
		o.rng[0].FillNormMulAdd(c1, o.sigma, 0)
		o.rng[1].FillNormMulAdd(c2, o.sigma, 0)
	} else {
		clear(c1)
		clear(c2)
	}
	wc, w, h, t := o.wc, o.w, o.h, o.t
	p1, p2 := o.phase[0], o.phase[1]
	for k := range v {
		wt := w * t
		v[k] = wc * t // the carrier's wc*t + 0: wc*t is never -0
		ph[k] = wt + p1
		msk[k] = wt + p2
		t += h
		p1 += c1[k]
		p2 += c2[k]
	}
	o.t, o.phase[0], o.phase[1] = t, p1, p2
	kernels.Sincos(sn, c1, ph)
	kernels.Sincos(sn, c2, msk)
	qCos, qSin := fe.qCos, fe.qSin
	for k, s := range sn {
		msk[k] = -s*qCos - c2[k]*qSin
	}
	kernels.Sincos(sn, ph, v)
	for k, e := range env {
		v[k] = s2 * (real(e)*ph[k] - imag(e)*sn[k])
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
	if fe.lo, err = newLOBank(fe.fc, cfg.LOLinewidthHz, fe.fs, cfg.Seed); err != nil {
		return nil, err
	}
	var dc float64 // self-mixing DC amplitude on the I rail
	if cfg.EnableDC {
		dc = units.DBmToAmplitude(cfg.DCOffsetDBm)
	}
	theta := cfg.IQPhaseErrorDeg * math.Pi / 180
	fe.qCos, fe.qSin = math.Cos(theta), math.Sin(theta)
	sv := &fe.solver
	*sv = kernels.CTSolver{
		G: fe.lna.g, A3: fe.lna.a3, Clip: fe.lna.vClip, NClip: -fe.lna.vClip, NSig: fe.lna.nsig,
		// i = m*c2*1 + dc and q = m*msk*qGain + -0 are the converter's
		// i = m*c2 + dc and q = m*msk*qGain bit for bit.
		IQMul:   [2]float64{1, units.DBToVoltageGain(cfg.IQGainImbalanceDB)},
		IQAdd:   [2]float64{dc, math.Copysign(0, -1)},
		OutGain: pair(units.DBToVoltageGain(cfg.OutputGainDB)),
		Decim:   cfg.SolverOversample,
	}
	if cfg.DCBlockCornerHz > 0 {
		hpf, err := NewRCHighpass(cfg.DCBlockCornerHz, fe.fs)
		if err != nil {
			return nil, err
		}
		sv.HPF = true
		sv.HK, sv.HH2, sv.HDen, sv.HC, sv.HD = hpf.k, hpf.h2, hpf.den, hpf.c, hpf.d
	}
	if cfg.ChannelFilterOrder > 0 {
		// One Chebyshev serves both rails: their coefficients are identical.
		ch, err := newCTChebyshev(cfg.ChannelFilterOrder,
			cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fe.fs)
		if err != nil {
			return nil, err
		}
		sv.LPF = true
		sv.Gain = pair(ch.gain)
		sv.Sec = make([]kernels.CTSection, len(ch.bq))
		for k, q := range ch.bq {
			sv.Sec[k] = kernels.CTSection{
				H2: pair(q.h2), NA0: pair(q.na0), K22: pair(q.k22),
				M11: pair(q.m11), M12: pair(q.m12), M21: pair(q.m21), M22: pair(q.m22),
				C0: pair(q.c0), C1: pair(q.c1), D: pair(q.d),
			}
		}
		if fo := ch.fo; fo != nil {
			sv.FO = true
			sv.FK, sv.FH2, sv.FDen, sv.FC, sv.FD = pair(fo.k), pair(fo.h2), pair(fo.den), pair(fo.c), pair(fo.d)
		}
	}
	// A moderate interpolator suffices here: the envelope entering the
	// solver is already band-limited and the channel-select Chebyshev
	// removes interpolation images after downconversion. (The sharp
	// default interpolator would triple the per-step cost.)
	if fe.up, err = dsp.NewUpsampler(cfg.SolverOversample, 16*cfg.SolverOversample+1); err != nil {
		return nil, err
	}
	// The hand-over channels hold every block (and the end mark), so no
	// send blocks.
	fe.driveFree = make(chan *driveBlock, len(fe.drive))
	fe.driveFull = make(chan *driveBlock, len(fe.drive)+1)
	for k := range fe.drive {
		fe.driveFree <- &fe.drive[k]
	}
	fe.runDrive = fe.driveAhead
	return fe, nil
}

// Process runs the composite baseband frame through the analog receiver and
// returns the baseband output at the input rate (20 MHz for native input).
//
// The solver streams the frame in the upsampler's blocks in two stages. The
// drive stage, a helper goroutine, interpolates the envelope, up-converts
// it to the scaled RF carrier and computes the LO bank (first LO, second
// LO and its skewed Q rail), none of which depends on the circuit's state;
// it runs one block ahead and hands blocks over on channels, ending the
// frame with a nil block. The caller runs the circuit recurrence, one
// kernels.CTSolve call per block: LNA, first conversion, DC block,
// quadrature conversion, the channel-select Chebyshev on both rails,
// output gain and sampling at the input rate. Process returns only after
// the drive stage has finished. The output is bit-identical to stepping
// every stage per sample.
func (fe *FrontEnd) Process(x []complex128) []complex128 {
	out := make([]complex128, 0, len(x))
	fe.frame = x
	go fe.runDrive()
	for b := <-fe.driveFull; b != nil; b = <-fe.driveFull {
		out = fe.solveBlock(out, b)
		fe.driveFree <- b
	}
	return out
}

// driveAhead is the drive stage of one Process call: it fills the frame's
// drive blocks in order, as fast as the solver frees buffers, then sends
// the nil end mark.
//
//lint:hotpath
func (fe *FrontEnd) driveAhead() {
	fe.up.Begin(fe.frame)
	fe.frame = nil
	for env := fe.up.Next(); env != nil; env = fe.up.Next() {
		b := <-fe.driveFree
		fe.fillDrive(b, env)
		fe.driveFull <- b
	}
	fe.driveFull <- nil
}

// solveBlock steps the circuit over one drive block and appends the
// decimated output to out. The LNA's draws for the block come first, in
// sample order, as one plane: FillNormMulAdd's 0 + d*1 is the draw d
// itself, since no draw is -0, and the kernel adds d*nsig to the drive as
// CTNonlinearAmp.Step does.
//
//lint:hotpath
func (fe *FrontEnd) solveBlock(out []complex128, b *driveBlock) []complex128 {
	n := len(b.v)
	var noise []float64
	if rng := fe.lna.noise; rng != nil {
		//lint:ignore escape one-time noise plane, reused across blocks and frames
		growPlanes(n, &fe.noise)
		noise = fe.noise
		rng.FillNormMulAdd(noise, 1, 0)
	}
	m := len(out)
	//lint:ignore escape grows only past the caller's capacity, which Process sizes for the frame
	out = slices.Grow(out, fe.solver.Outputs(n))
	m += kernels.CTSolve(out[m:cap(out)], b.v, b.c1, b.c2, b.msk, noise, &fe.solver)
	return out[:m]
}

// pair duplicates a coefficient across the solver's I and Q lanes.
func pair(x float64) [2]float64 { return [2]float64{x, x} }

// Reset clears every stage.
func (fe *FrontEnd) Reset() {
	fe.lna.Reset()
	fe.lo.reset()
	fe.solver.Reset()
	fe.up.Reset()
}
