// Package rf provides complex-baseband behavioral models of the analog RF
// receiver blocks evaluated in the paper: amplifiers with gain, noise figure
// and nonlinearity (compression point / third-order intercept / AM-PM),
// mixers with LO phase noise, I/Q imbalance and self-mixing DC offset,
// inter-stage DC-block high-pass filters, Chebyshev channel-select low-pass
// filters, automatic gain control and ADC quantization — plus the
// double-conversion receiver assembled from them and Friis cascade analysis.
//
// Conventions: signals are complex envelopes whose instantaneous power into
// 1 ohm is |x|^2; absolute powers are dBm. Each block is a streaming
// processor whose state persists across frames.
package rf

import (
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/kernels"
	"wlansim/internal/randutil"
	"wlansim/internal/units"
)

// Block is a streaming complex-baseband signal processor.
type Block interface {
	// Process filters a frame in place and returns it.
	Process(x []complex128) []complex128
	// Reset clears streaming state (filters, oscillators, AGC loops).
	Reset()
}

// NonlinearModel selects the AM/AM characteristic of an amplifier.
type NonlinearModel int

// Supported amplifier nonlinearity models.
const (
	// Linear disables the nonlinearity.
	Linear NonlinearModel = iota
	// Cubic is the classical third-order polynomial y = a1*x - c3*|x|^2*x
	// clamped at its saturation envelope. It reproduces the exact IIP3 and
	// the 1 dB compression point at IIP3 - 9.64 dB.
	Cubic
	// Rapp is the solid-state PA model y = g*x / (1+(|gx|/Asat)^(2p))^(1/2p)
	// with smoothness p = 2, parameterized by its 1 dB compression point.
	Rapp
)

// P1dBFromIIP3 converts an input-referred third-order intercept point to the
// input 1 dB compression point of a cubic nonlinearity (the classical
// 9.64 dB relation).
func P1dBFromIIP3(iip3DBm float64) float64 { return iip3DBm - 9.6357 }

// IIP3FromP1dB is the inverse of P1dBFromIIP3.
func IIP3FromP1dB(p1dBDBm float64) float64 { return p1dBDBm + 9.6357 }

// AmplifierConfig parameterizes an RF amplifier model.
type AmplifierConfig struct {
	// Name identifies the block in cascade reports.
	Name string
	// GainDB is the small-signal power gain.
	GainDB float64
	// NoiseFigureDB adds input-referred thermal noise over the simulation
	// bandwidth; 0 disables the noise source.
	NoiseFigureDB float64
	// Model selects the AM/AM nonlinearity.
	Model NonlinearModel
	// IIP3DBm is the input-referred third-order intercept (Cubic model).
	// Ignored when CompressionDBm is set (non-zero takes precedence is NOT
	// assumed; exactly one of the two should be set, see NewAmplifier).
	IIP3DBm float64
	// CompressionDBm is the input 1 dB compression point (Cubic or Rapp).
	CompressionDBm float64
	// UseCompression selects CompressionDBm instead of IIP3DBm as the
	// nonlinearity parameter.
	UseCompression bool
	// AMPMDegPerDB adds Saleh-like AM/PM conversion: phase shift in degrees
	// per dB of compression depth. 0 disables it.
	AMPMDegPerDB float64
	// SampleRateHz is the simulation bandwidth for the noise source.
	SampleRateHz float64
	// NoiseSeed seeds the noise generator.
	NoiseSeed int64
	// DisableNoise turns the noise source off even with a nonzero noise
	// figure, mirroring the AMS-designer limitation discussed in §4.3.
	DisableNoise bool
}

// Amplifier is a memoryless amplifier with thermal noise and optional
// compression. It implements Block.
type Amplifier struct {
	cfg   AmplifierConfig
	g     float64 // voltage gain
	c3    float64 // cubic coefficient (positive; applied as -c3|x|^2 x)
	aSat  float64 // envelope clamp (Cubic) or Rapp saturation amplitude
	aCrit float64 // input envelope where the cubic peaks (Cubic only)
	noise *randutil.Rand
	nsig  float64 // per-dimension noise sigma at the input

	xv, nv kernels.Vec // Process's planar frame and noise-plane scratch
}

// NewAmplifier validates the configuration and builds the model.
func NewAmplifier(cfg AmplifierConfig) (*Amplifier, error) {
	if cfg.SampleRateHz <= 0 && cfg.NoiseFigureDB > 0 && !cfg.DisableNoise {
		return nil, fmt.Errorf("rf: amplifier %q: noise figure set but no sample rate", cfg.Name)
	}
	if cfg.NoiseFigureDB < 0 {
		return nil, fmt.Errorf("rf: amplifier %q: negative noise figure", cfg.Name)
	}
	a := &Amplifier{cfg: cfg, g: units.DBToVoltageGain(cfg.GainDB)}

	switch cfg.Model {
	case Linear:
	case Cubic:
		iip3 := cfg.IIP3DBm
		if cfg.UseCompression {
			iip3 = IIP3FromP1dB(cfg.CompressionDBm)
		}
		pW := units.DBmToWatts(iip3)
		a.c3 = a.g / pW
		// Beyond the cubic's peak (input sqrt(P/3)) the polynomial folds
		// over; hold the output at the peak envelope instead (hard
		// saturation), preserving phase.
		a.aCrit = math.Sqrt(pW / 3)
		a.aSat = a.g * a.aCrit * (1 - a.aCrit*a.aCrit/pW) // = g*sqrt(P/3)*2/3
	case Rapp:
		if !cfg.UseCompression {
			return nil, fmt.Errorf("rf: amplifier %q: Rapp model requires UseCompression", cfg.Name)
		}
		// Solve |gx|/(1+(|gx|/Asat)^4)^(1/4) = |gx|*10^(-1/20) at the
		// compression input amplitude: (1+(r)^4)^(1/4) = 10^(1/20)
		// -> r = ((10^(4/20)) - 1)^(1/4), Asat = |g*x1dB| / r.
		x1 := units.DBmToAmplitude(cfg.CompressionDBm)
		r := math.Pow(units.DBToVoltageGain(4.0)-1, 0.25)
		a.aSat = a.g * x1 / r
	default:
		return nil, fmt.Errorf("rf: amplifier %q: unknown model %d", cfg.Name, cfg.Model)
	}

	if cfg.NoiseFigureDB > 0 && !cfg.DisableNoise {
		f := units.DBToLinear(cfg.NoiseFigureDB)
		np := units.Boltzmann * units.RoomTemperature * cfg.SampleRateHz * (f - 1)
		a.nsig = math.Sqrt(np / 2)
		// Concrete generator: the thermal-noise draws sit in the per-sample
		// amplifier loop, and the devirtualized ziggurat keeps the register
		// step inlined.
		a.noise = randutil.NewRandDirect(cfg.NoiseSeed)
	}
	return a, nil
}

// Reset restarts the noise source (memoryless otherwise). Rewinding to the
// construction mark restarts the identical noise stream without re-running
// the seeding procedure.
func (a *Amplifier) Reset() {
	if a.noise != nil {
		a.noise.Rewind()
	}
}

// amplify is the deterministic part of ProcessSample: the AM/AM nonlinearity
// and AM/PM rotation with the input noise already added. Split out so the
// lane body can share one materialized noise plane across lanes and still
// run the exact per-sample arithmetic.
//
//lint:hotpath
func (a *Amplifier) amplify(x complex128) complex128 {
	switch a.cfg.Model {
	case Linear:
		return x * complex(a.g, 0)
	case Cubic:
		m2 := real(x)*real(x) + imag(x)*imag(x)
		m := math.Sqrt(m2)
		var y complex128
		if m >= a.aCrit {
			y = x * complex(a.aSat/m, 0)
		} else {
			y = x * complex(a.g-a.c3*m2, 0)
		}
		return a.applyAMPM(y, m)
	case Rapp:
		y := x * complex(a.g, 0)
		m := cmplx.Abs(y)
		if m > 0 {
			r := m / a.aSat
			y *= complex(1/math.Pow(1+r*r*r*r, 0.25), 0)
		}
		return a.applyAMPM(y, cmplx.Abs(x))
	}
	return x
}

// applyAMPM rotates the sample by the Saleh-style AM/PM phase: proportional
// to the instantaneous compression depth in dB.
//
//lint:hotpath
func (a *Amplifier) applyAMPM(y complex128, inAmp float64) complex128 {
	if a.cfg.AMPMDegPerDB == 0 || inAmp == 0 {
		return y
	}
	lin := a.g * inAmp
	out := cmplx.Abs(y)
	if out <= 0 || lin <= out {
		return y
	}
	depthDB := units.VoltageGainToDB(lin / out)
	phase := a.cfg.AMPMDegPerDB * depthDB * math.Pi / 180
	return y * cmplx.Exp(complex(0, phase))
}

// Process amplifies a frame in place and returns it: the lane body
// (processBatch) over one lane, the amplifier's own. The frame's thermal-noise
// draws come as one plane from the single generator in the identical
// re,im-per-sample order, and scale-then-add performs the same two rounding
// steps per component, so the output is a ProcessSample loop's bit for bit.
//
//lint:hotpath
func (a *Amplifier) Process(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	//lint:ignore escape inlined Vec grow: first-use plane allocation, reused afterwards
	a.xv.Grow(n)
	if a.noise != nil {
		//lint:ignore escape inlined Vec grow: first-use plane allocation, reused afterwards
		a.nv.Grow(n)
	}
	xr, xi := [][]float64{a.xv.Re}, [][]float64{a.xv.Im}
	a.processBatch(xr, xi, [][]complex128{x}, []*Amplifier{a}, a.nv.Re, a.nv.Im)
	a.xv.CopyTo(x)
	return x
}
