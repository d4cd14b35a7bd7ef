package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/kernels"
	"wlansim/internal/randutil"
	"wlansim/internal/units"
)

// LOConfig parameterizes a local oscillator model.
type LOConfig struct {
	// LinewidthHz is the Lorentzian 3 dB linewidth of the oscillator,
	// realized as a Wiener phase process with per-sample variance
	// 2*pi*linewidth/fs. 0 disables phase noise.
	LinewidthHz float64
	// FrequencyOffsetHz is a static LO frequency error.
	FrequencyOffsetHz float64
	// SampleRateHz is the simulation rate.
	SampleRateHz float64
	// Seed seeds the phase noise generator.
	Seed int64
}

// LO models a local oscillator's phase trajectory: static frequency offset
// plus Wiener phase noise.
type LO struct {
	cfg    LOConfig
	phase  float64
	step   float64
	sigma  float64
	rng    *randutil.Rand
	phasor complex128 // e^{j phase}, advanced incrementally
	renorm int        // samples since the last exact resync
	dv     []float64  // frame-fill phase-increment scratch

	// table holds the one-period phasor table used by frame fills when the
	// oscillator is noiseless and its offset/sample-rate ratio is rational
	// (every 20 MHz-grid interferer and IF offset at integer oversample):
	// the phase then takes only n distinct values, and the table carries
	// the exact math.Sincos of each — no per-sample transcendental, no
	// incremental-rotation drift to renormalize.
	table *kernels.LOTable
}

// maxLODenominator bounds the period search for the tabled-LO path; 8192
// covers every 20 MHz-grid offset at the simulator's oversample factors
// while keeping worst-case tables small.
const maxLODenominator = 8192

// rationalLORatio reports the offset/sample-rate ratio as k/n when that
// ratio is exactly rational with n <= maxLODenominator in float64 arithmetic
// (the products involved must be exactly representable, which holds for the
// binary-friendly frequency plans the simulator uses). The smallest such n
// is returned.
func rationalLORatio(f0, fs float64) (k, n int, ok bool) {
	if fs <= 0 || math.IsNaN(f0) || math.IsInf(f0, 0) || math.Abs(f0) >= fs*(1<<30) {
		return 0, 0, false
	}
	for n = 1; n <= maxLODenominator; n++ {
		p := f0 * float64(n)
		if math.Mod(p, fs) == 0 {
			return int(p / fs), n, true
		}
	}
	return 0, 0, false
}

// NewLO builds a local oscillator model.
func NewLO(cfg LOConfig) (*LO, error) {
	if cfg.LinewidthHz < 0 {
		return nil, fmt.Errorf("rf: negative LO linewidth")
	}
	if cfg.SampleRateHz <= 0 && (cfg.LinewidthHz > 0 || cfg.FrequencyOffsetHz != 0) {
		return nil, fmt.Errorf("rf: LO requires a sample rate")
	}
	lo := &LO{cfg: cfg}
	if cfg.SampleRateHz > 0 {
		lo.step = 2 * math.Pi * cfg.FrequencyOffsetHz / cfg.SampleRateHz
		lo.sigma = math.Sqrt(2 * math.Pi * cfg.LinewidthHz / cfg.SampleRateHz)
	}
	// Concrete generator: the phase-noise draw sits in the per-sample mixing
	// loop, and the devirtualized ziggurat keeps the register step inlined.
	lo.rng = randutil.NewRandDirect(cfg.Seed)
	lo.phasor = 1
	if lo.sigma == 0 && cfg.SampleRateHz > 0 {
		if k, n, ok := rationalLORatio(cfg.FrequencyOffsetHz, cfg.SampleRateHz); ok {
			lo.table = kernels.NewLOTable(k, n)
		}
	}
	return lo, nil
}

// loRenormInterval is how many incremental rotations the LO applies before
// resynchronizing the phasor exactly from the accumulated phase, bounding
// the series-truncation drift to ~512 * 5e-12 rad.
const loRenormInterval = 512

// fill materializes the phasors of the next len(re) samples into planar
// planes, advancing the oscillator. Noiseless rational-ratio oscillators walk
// the precomputed period table (each value the exact Sincos of its rational
// phase); all others run the Next recurrence sample by sample, so frame fills
// and streaming calls draw the identical phase-noise trajectory.
//
//lint:hotpath
func (l *LO) fill(re, im []float64) {
	if l.table != nil {
		l.table.Fill(re, im)
		// Keep the scalar state consistent so a later Next continues the
		// same trajectory: park the recurrence on the table's next phase.
		j, n := l.table.Pos()
		p := 2 * math.Pi * float64(j) / float64(n)
		if p > math.Pi {
			p -= 2 * math.Pi
		}
		l.phase = p
		pr, pi := l.table.Peek()
		l.phasor = complex(pr, pi)
		l.renorm = 0
		return
	}
	// Split the fill into a draw pass and a rotation pass: the ziggurat loop
	// runs without the phase recurrence interleaved, and the recurrence runs
	// with its state in registers. The increments are the exact values Next
	// would compute (step + draw*sigma, draws in sample order from the same
	// generator), and the rotation pass performs Next's phase/renorm updates,
	// so streaming and frame fills draw one trajectory.
	l.fillIncrements(len(re))
	l.rotateIncrements(re, im)
}

// fillIncrements materializes the next n per-sample phase increments into
// l.dv: step + draw*sigma with the draws in sample order (or the constant
// step for a noiseless oscillator, which consumes no draws — exactly as
// Next's sigma guard).
//
//lint:hotpath
func (l *LO) fillIncrements(n int) {
	if cap(l.dv) < n {
		//lint:ignore escape first-use phase-increment plane, reused afterwards
		l.dv = make([]float64, n)
	}
	d := l.dv[:n]
	if l.sigma > 0 {
		l.rng.FillNormMulAdd(d, l.sigma, l.step)
		return
	}
	for i := range d {
		d[i] = l.step
	}
}

// rotateIncrements runs Next's phase recurrence over the materialized
// increments, emitting the pre-update phasor per sample.
//
//lint:hotpath
func (l *LO) rotateIncrements(re, im []float64) {
	d := l.dv[:len(re)]
	phase, phasor, renorm := l.phase, l.phasor, l.renorm
	for i := range re {
		re[i] = real(phasor)
		im[i] = imag(phasor)
		di := d[i]
		phase += di
		if phase > math.Pi || phase < -math.Pi {
			phase = math.Mod(phase, 2*math.Pi)
		}
		renorm++
		if di > smallAngleMax || di < -smallAngleMax || renorm >= loRenormInterval {
			s, c := math.Sincos(phase)
			phasor = complex(c, s)
			renorm = 0
		} else {
			phasor *= rotateSmall(di)
		}
	}
	l.phase, l.phasor, l.renorm = phase, phasor, renorm
}

// rotateIncrementsPair advances two independent oscillators' recurrences in
// one interleaved loop. Each chain performs exactly its rotateIncrements
// arithmetic on its own state — the interleave only overlaps the two serial
// phasor-multiply dependency chains, which bound the one-at-a-time pass.
//
//lint:hotpath
func rotateIncrementsPair(l1 *LO, re1, im1 []float64, l2 *LO, re2, im2 []float64) {
	d1 := l1.dv[:len(re1)]
	d2 := l2.dv[:len(re1)]
	re2 = re2[:len(re1)]
	im2 = im2[:len(re1)]
	p1, v1, r1 := l1.phase, l1.phasor, l1.renorm
	p2, v2, r2 := l2.phase, l2.phasor, l2.renorm
	for i := range re1 {
		re1[i] = real(v1)
		im1[i] = imag(v1)
		re2[i] = real(v2)
		im2[i] = imag(v2)
		da := d1[i]
		db := d2[i]
		p1 += da
		p2 += db
		if p1 > math.Pi || p1 < -math.Pi {
			p1 = math.Mod(p1, 2*math.Pi)
		}
		if p2 > math.Pi || p2 < -math.Pi {
			p2 = math.Mod(p2, 2*math.Pi)
		}
		r1++
		r2++
		if da > smallAngleMax || da < -smallAngleMax || r1 >= loRenormInterval {
			s, c := math.Sincos(p1)
			v1 = complex(c, s)
			r1 = 0
		} else {
			v1 *= rotateSmall(da)
		}
		if db > smallAngleMax || db < -smallAngleMax || r2 >= loRenormInterval {
			s, c := math.Sincos(p2)
			v2 = complex(c, s)
			r2 = 0
		} else {
			v2 *= rotateSmall(db)
		}
	}
	l1.phase, l1.phasor, l1.renorm = p1, v1, r1
	l2.phase, l2.phasor, l2.renorm = p2, v2, r2
}

// Reset restarts the phase trajectory. Rewinding to the construction mark
// restarts the identical phase-noise stream without re-running the seeding
// procedure.
func (l *LO) Reset() {
	l.phase = 0
	l.phasor = 1
	l.renorm = 0
	l.rng.Rewind()
	if l.table != nil {
		l.table.Reset()
	}
}

// MixerConfig parameterizes a complex-baseband mixer model. In the
// double-conversion receiver's equivalent baseband the frequency translation
// itself is absorbed into the signal representation; the model carries the
// mixer's imperfections.
type MixerConfig struct {
	// Name identifies the block in cascade reports.
	Name string
	// ConversionGainDB is the conversion power gain.
	ConversionGainDB float64
	// NoiseFigureDB adds input-referred noise like the amplifier model.
	NoiseFigureDB float64
	// LO configures phase noise and frequency error; nil for an ideal LO.
	LO *LOConfig
	// IQGainImbalanceDB is the I/Q amplitude mismatch in dB (power).
	IQGainImbalanceDB float64
	// IQPhaseErrorDeg is the I/Q quadrature phase error in degrees.
	IQPhaseErrorDeg float64
	// DCOffsetDBm injects a static DC term modeling LO self-mixing
	// (paper §2.2: both mixer inputs at the LO frequency). Use
	// math.Inf(-1) or leave zero value DisableDC to disable.
	DCOffsetDBm float64
	// EnableDC turns the self-mixing DC term on.
	EnableDC bool
	// SampleRateHz is the simulation bandwidth for the noise source.
	SampleRateHz float64
	// NoiseSeed seeds the noise generator.
	NoiseSeed int64
	// DisableNoise turns the noise source off (AMS co-sim limitation).
	DisableNoise bool
}

// Mixer is a behavioral down-conversion mixer. It implements Block.
type Mixer struct {
	cfg   MixerConfig
	g     float64
	lo    *LO
	mu    complex128 // direct I/Q term
	nu    complex128 // image (conjugate) term
	dc    complex128
	noise *randutil.Rand
	nsig  float64

	xv, nv   kernels.Vec // Process's planar frame and noise-plane scratch
	lov      kernels.Vec // LO trajectory of the current frame or block
	loFilled bool        // lov already holds this frame's trajectory (pair prefill)
}

// NewMixer validates the configuration and builds the model.
func NewMixer(cfg MixerConfig) (*Mixer, error) {
	if cfg.NoiseFigureDB < 0 {
		return nil, fmt.Errorf("rf: mixer %q: negative noise figure", cfg.Name)
	}
	if cfg.SampleRateHz <= 0 && cfg.NoiseFigureDB > 0 && !cfg.DisableNoise {
		return nil, fmt.Errorf("rf: mixer %q: noise figure set but no sample rate", cfg.Name)
	}
	m := &Mixer{cfg: cfg, g: units.DBToVoltageGain(cfg.ConversionGainDB)}
	if cfg.LO != nil {
		loCfg := *cfg.LO
		if loCfg.SampleRateHz == 0 {
			loCfg.SampleRateHz = cfg.SampleRateHz
		}
		lo, err := NewLO(loCfg)
		if err != nil {
			return nil, err
		}
		m.lo = lo
	}
	// I/Q imbalance terms: received r = mu*x + nu*conj(x) with
	// mu = (1 + a*e^{-j theta})/2, nu = (1 - a*e^{+j theta})/2,
	// a the linear amplitude mismatch.
	alpha := units.DBToVoltageGain(cfg.IQGainImbalanceDB)
	theta := cfg.IQPhaseErrorDeg * math.Pi / 180
	m.mu = (1 + cmplx.Exp(complex(0, -theta))*complex(alpha, 0)) / 2
	m.nu = (1 - cmplx.Exp(complex(0, theta))*complex(alpha, 0)) / 2
	if cfg.EnableDC {
		m.dc = complex(units.DBmToAmplitude(cfg.DCOffsetDBm), 0)
	}
	if cfg.NoiseFigureDB > 0 && !cfg.DisableNoise {
		f := units.DBToLinear(cfg.NoiseFigureDB)
		np := units.Boltzmann * units.RoomTemperature * cfg.SampleRateHz * (f - 1)
		m.nsig = math.Sqrt(np / 2)
		m.noise = randutil.NewRandDirect(cfg.NoiseSeed)
	}
	return m, nil
}

// ImageRejectionDB returns the I/Q image rejection ratio implied by the
// imbalance settings (+Inf for a perfectly balanced mixer).
func (m *Mixer) ImageRejectionDB() float64 {
	n := cmplx.Abs(m.nu)
	if n == 0 {
		return math.Inf(1)
	}
	return units.VoltageGainToDB(cmplx.Abs(m.mu) / n)
}

// Reset restarts the LO and noise source.
func (m *Mixer) Reset() {
	m.loFilled = false
	if m.lo != nil {
		m.lo.Reset()
	}
	if m.noise != nil {
		m.noise.Rewind()
	}
}

// Process mixes a frame in place and returns it: the lane body
// (processBatchPlanar) over one planar lane, the mixer's own.
//
// The frame is run as three passes — noise injection, LO trajectory fill,
// planar mixer arithmetic — instead of the per-sample pipeline. The split is
// bit-exact against ProcessSample: the noise and phase-noise streams come
// from separate generators, so draining one fully before the other preserves
// each generator's draw order, and the kernels layer mirrors the per-sample
// complex arithmetic operation for operation. (The one intended exception is
// a noiseless rational-ratio LO, whose frame fills use the exact period
// table rather than the incremental recurrence; see LO.fill.)
//
//lint:hotpath
func (m *Mixer) Process(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	m.xv.From(x)
	if m.noise != nil {
		//lint:ignore escape inlined Vec grow: first-use plane allocation, reused afterwards
		m.nv.Grow(n)
	}
	m.processBatchPlanar([][]float64{m.xv.Re}, [][]float64{m.xv.Im}, m.nv.Re, m.nv.Im)
	m.xv.CopyTo(x)
	return x
}

// prefillLOPair fills both mixers' LO trajectory planes for an n-sample
// frame in one interleaved rotation pass (see rotateIncrementsPair), marking
// them consumed-once for the following processBatchPlanar calls. It applies only
// when both oscillators run the increment recurrence; table-driven and
// absent LOs keep their own fills.
func prefillLOPair(m1, m2 *Mixer, n int) {
	if n == 0 || m1 == nil || m2 == nil {
		return
	}
	l1, l2 := m1.lo, m2.lo
	if l1 == nil || l2 == nil || l1.table != nil || l2.table != nil {
		return
	}
	m1.lov.Grow(n)
	m2.lov.Grow(n)
	l1.fillIncrements(n)
	l2.fillIncrements(n)
	rotateIncrementsPair(l1, m1.lov.Re, m1.lov.Im, l2, m2.lov.Re, m2.lov.Im)
	m1.loFilled = true
	m2.loFilled = true
}
