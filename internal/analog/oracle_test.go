package analog

import (
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/units"
)

// refFrontEnd is the per-sample reference oracle of FrontEnd: the solver as
// it was before block streaming. It zero-stuffs the whole frame and filters
// it with a plain FIR, then steps every stage once per sample through the
// Stage interface and the oscillators' Next, in the order the circuit
// specifies. FrontEnd.Process must match it bit for bit.
type refFrontEnd struct {
	lna                       *CTNonlinearAmp
	lo1, lo2, carrier         *CTOscillator
	hpf                       *CTFirstOrder
	lpfI, lpfQ                *CTCascade
	qGain, qCos, qSin, dc, og float64
	interp                    *dsp.FIR
	factor, phase             int
}

func newRefFrontEnd(t *testing.T, cfg FrontEndConfig) *refFrontEnd {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cfg.SolverOversample == 0 {
		cfg.SolverOversample = 32
	}
	fs := cfg.InputRateHz * float64(cfg.SolverOversample)
	fc := fs / 4
	r := &refFrontEnd{factor: cfg.SolverOversample}
	var err error
	r.lna, err = NewCTNonlinearAmp(cfg.LNAGainDB, cfg.LNACompressionDBm, cfg.LNANoiseFigureDB, fs, cfg.Seed+1, cfg.EnableNoise)
	must(err)
	r.lo1, err = NewCTOscillator(fc/2, cfg.LOLinewidthHz, fs, cfg.Seed+2)
	must(err)
	r.lo2, err = NewCTOscillator(fc/2, cfg.LOLinewidthHz, fs, cfg.Seed+3)
	must(err)
	if cfg.DCBlockCornerHz > 0 {
		r.hpf, err = NewRCHighpass(cfg.DCBlockCornerHz, fs)
		must(err)
	}
	if cfg.ChannelFilterOrder > 0 {
		r.lpfI, err = NewCTChebyshevLowpass(cfg.ChannelFilterOrder, cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fs)
		must(err)
		r.lpfQ, err = NewCTChebyshevLowpass(cfg.ChannelFilterOrder, cfg.ChannelFilterEdgeHz, cfg.ChannelFilterRippleDB, fs)
		must(err)
	}
	r.qGain = units.DBToVoltageGain(cfg.IQGainImbalanceDB)
	theta := cfg.IQPhaseErrorDeg * math.Pi / 180
	r.qCos, r.qSin = math.Cos(theta), math.Sin(theta)
	if cfg.EnableDC {
		r.dc = units.DBmToAmplitude(cfg.DCOffsetDBm)
	}
	r.og = units.DBToVoltageGain(cfg.OutputGainDB)
	r.interp, err = dsp.DesignLowpassFIR(16*cfg.SolverOversample+1, 0.5/float64(cfg.SolverOversample), dsp.Blackman)
	must(err)
	r.carrier, err = NewCTOscillator(fc, 0, fs, 0)
	must(err)
	return r
}

// Process is the pre-streaming FrontEnd.Process, sample by sample.
func (r *refFrontEnd) Process(x []complex128) []complex128 {
	// 1. Interpolate the complex envelope to the solver rate.
	env := make([]complex128, len(x)*r.factor)
	g := complex(float64(r.factor), 0)
	for i, v := range x {
		env[i*r.factor] = v * g
	}
	env = r.interp.Process(env)
	out := make([]complex128, 0, len(x))
	s2 := math.Sqrt2
	for _, e := range env {
		// 2. Up-convert to the scaled RF carrier (real passband).
		c, ms := r.carrier.Next()
		v := s2 * (real(e)*c - imag(e)*(-ms)) // sqrt2*Re{e * exp(+jwt)}

		// 3. LNA (nonlinear, noisy) on the RF waveform.
		v = r.lna.Step(v)

		// 4. First conversion: x2 cos at fc/2.
		c1, _ := r.lo1.Next()
		v *= 2 * c1

		// 5. Inter-stage DC block.
		if r.hpf != nil {
			v = r.hpf.Step(v)
		}

		// 6. Second conversion to quadrature baseband with the Q-rail skew:
		// -sin(ph+theta) = ms2*cos(theta) - c2*sin(theta).
		c2, ms2 := r.lo2.Next()
		i := v*s2*c2 + r.dc
		msSkew := ms2*r.qCos - c2*r.qSin
		q := v * s2 * msSkew * r.qGain

		// 7. Channel-select Chebyshev low-pass per rail.
		if r.lpfI != nil {
			i = r.lpfI.Step(i)
			q = r.lpfQ.Step(q)
		}

		// 8. Output amplifier and ADC sampling at the input rate.
		if r.phase == 0 {
			out = append(out, complex(i*r.og, q*r.og))
		}
		r.phase++
		if r.phase == r.factor {
			r.phase = 0
		}
	}
	return out
}

func (r *refFrontEnd) Reset() {
	r.lna.Reset()
	r.lo1.Reset()
	r.lo2.Reset()
	if r.hpf != nil {
		r.hpf.Reset()
	}
	if r.lpfI != nil {
		r.lpfI.Reset()
		r.lpfQ.Reset()
	}
	r.interp.Reset()
	r.carrier.Reset()
	r.phase = 0
}

// TestFrontEndProcessMatchesOracle runs every co-sim case through the
// block-streamed FrontEnd and the per-sample oracle side by side and
// requires bit-identical output, frame by frame. The oracle itself must
// reproduce the recorded golden digest.
func TestFrontEndProcessMatchesOracle(t *testing.T) {
	for _, c := range cosimCases {
		cfg := DefaultFrontEndConfig()
		if c.tune != nil {
			c.tune(&cfg)
		}
		fe, err := NewFrontEnd(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefFrontEnd(t, cfg)
		rng := rand.New(rand.NewSource(int64(len(c.name))))
		h := uint64(fnvOffset)
		for k, n := range c.frames {
			if k < len(c.reset) && c.reset[k] {
				fe.Reset()
				ref.Reset()
			}
			x := cosimInput(rng, n)
			want := ref.Process(x)
			got := fe.Process(x)
			if len(got) != len(want) {
				t.Fatalf("%s frame %d: %d samples, oracle %d", c.name, k, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%s frame %d (%d samples): sample %d = %v, oracle %v", c.name, k, n, i, got[i], want[i])
				}
			}
			h = digestSamples(h, want)
		}
		if h != c.golden {
			t.Errorf("%s: oracle digest %#x, golden %#x", c.name, h, c.golden)
		}
	}
}

// TestCTStageStepsMatchUnhoisted pins the hoisted per-step constants of
// CTBiquad.Step and CTFirstOrder.Step to the trapezoidal updates written
// out with h/2 recomputed every step.
func TestCTStageStepsMatchUnhoisted(t *testing.T) {
	const fs = 640e6
	h := 1 / fs
	a0, a1 := 3.1e15, 4.7e7
	bq, err := NewCTBiquad(a0, 0.3, 1e-9, a0, a1, fs)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewRCHighpass(150e3, fs)
	if err != nil {
		t.Fatal(err)
	}
	w0 := 2 * math.Pi * 150e3
	var x1, x2, ub, xf, uf float64
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 5000; n++ {
		u := rng.NormFloat64()
		// Biquad, as the step was first written.
		h2 := h / 2
		r1 := x1 + h2*x2
		r2 := -h2*a0*x1 + (1-h2*a1)*x2 + h2*(ub+u)
		x1 = bq.m11*r1 + bq.m12*r2
		x2 = bq.m21*r1 + bq.m22*r2
		ub = u
		wantB := bq.c0*x1 + bq.c1*x2 + bq.d*u
		// First order, as the step was first written.
		xf = ((1-h2*w0)*xf + h2*(uf+u)) / (1 + h2*w0)
		uf = u
		wantF := -w0*xf + 1*u
		if got := bq.Step(u); math.Float64bits(got) != math.Float64bits(wantB) {
			t.Fatalf("biquad step %d: %v, want %v", n, got, wantB)
		}
		if got := fo.Step(u); math.Float64bits(got) != math.Float64bits(wantF) {
			t.Fatalf("first-order step %d: %v, want %v", n, got, wantF)
		}
	}
}

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

// Next returns cos and -sin of the current LO phase and advances time.
func (o *CTOscillator) Next() (cosv, msinv float64) {
	ph := o.w*o.t + o.phase
	o.t += o.h
	if o.rng != nil {
		o.phase += o.rng.NormFloat64() * o.sigma
	}
	return math.Cos(ph), -math.Sin(ph)
}

// Reset restarts the trajectory, rewinding the phase noise to its seeded
// state.
func (o *CTOscillator) Reset() {
	o.t, o.phase = 0, 0
	if o.rng != nil {
		o.rng.Rewind()
	}
}

// CTCascade runs stages in series.
type CTCascade struct {
	gain   float64
	stages []Stage
}

// NewCTCascade assembles a gained cascade.
func NewCTCascade(gain float64, stages ...Stage) *CTCascade {
	return &CTCascade{gain: gain, stages: stages}
}

// Step advances the whole cascade.
func (c *CTCascade) Step(u float64) float64 {
	v := u * c.gain
	for _, s := range c.stages {
		v = s.Step(v)
	}
	return v
}

// Reset clears every stage.
func (c *CTCascade) Reset() {
	for _, s := range c.stages {
		s.Reset()
	}
}
