package rf

import (
	"fmt"
	"math"

	"wlansim/internal/units"
)

// AGCConfig parameterizes the automatic gain controlled baseband amplifier.
type AGCConfig struct {
	// TargetDBm is the desired output power.
	TargetDBm float64
	// MinGainDB and MaxGainDB bound the control range.
	MinGainDB float64
	MaxGainDB float64
	// TimeConstantSamples sets the power-estimator smoothing and loop speed
	// (samples to settle to ~63%).
	TimeConstantSamples float64
	// InitialGainDB is the starting gain.
	InitialGainDB float64
	// Freeze holds the current gain (used after preamble acquisition).
	Freeze bool
}

// AGC is a feedback automatic gain control amplifier with asymmetric
// dynamics: a fast attack pulls the gain down within tens of samples when a
// strong packet arrives (so the short preamble survives), while the release
// toward higher gain is slow, as in practical WLAN front ends. It
// implements Block.
type AGC struct {
	cfg     AGCConfig
	gainDB  float64
	est     float64 // smoothed output power estimate (watts)
	alpha   float64
	attack  float64 // fraction of the (negative) dB error applied per sample
	release float64 // dB per dB of positive error per sample

	// Hot-loop derivatives of the state above, maintained so ProcessSample
	// avoids a Pow per sample (gain) and a Log10 per sample while either
	// slew clamp is active.
	gainLin   float64 // DBToVoltageGain(gainDB), tracked incrementally
	invTarget float64 // 1 / target power in watts
	uAttack   float64 // est/target ratio beyond which the attack slew clamps
	uRelease  float64 // est/target ratio below which the release slew clamps
	resync    int     // incremental gain updates since the last exact one
}

// NewAGC builds the loop.
func NewAGC(cfg AGCConfig) (*AGC, error) {
	if cfg.MinGainDB > cfg.MaxGainDB {
		return nil, fmt.Errorf("rf: AGC gain bounds inverted (%g > %g)", cfg.MinGainDB, cfg.MaxGainDB)
	}
	if cfg.TimeConstantSamples <= 0 {
		cfg.TimeConstantSamples = 64
	}
	a := &AGC{
		cfg:     cfg,
		gainDB:  clamp(cfg.InitialGainDB, cfg.MinGainDB, cfg.MaxGainDB),
		alpha:   4 / cfg.TimeConstantSamples,
		attack:  0.2,
		release: 0.1 / cfg.TimeConstantSamples,
	}
	if a.alpha > 0.5 {
		a.alpha = 0.5
	}
	a.est = units.DBmToWatts(cfg.TargetDBm)
	a.gainLin = units.DBToVoltageGain(a.gainDB)
	a.invTarget = 1 / units.DBmToWatts(cfg.TargetDBm)
	// The slew clamps kick in at fixed error magnitudes; precompute the
	// equivalent est/target power ratios so the clamped regimes need no
	// logarithm: attack clamps at errDB <= -attackClampDB/attack, release at
	// errDB >= releaseClampDB/release.
	a.uAttack = math.Pow(10, attackClampDB/(10*a.attack))
	a.uRelease = math.Pow(10, -releaseClampDB/(10*a.release))
	return a, nil
}

// attackClampDB and releaseClampDB bound the per-sample gain slew in dB.
const (
	attackClampDB  = 1.5
	releaseClampDB = 0.01
)

// lnTenOver20 converts a dB step to a natural-log voltage-gain exponent:
// 10^(dB/20) = e^(dB*lnTenOver20).
const lnTenOver20 = math.Ln10 / 20

// tenOverLn10 converts a natural log of a power ratio to dB.
const tenOverLn10 = 10 / math.Ln10

// agcResyncInterval is how many incremental linear-gain updates the loop
// applies before recomputing the gain exactly from its dB value, bounding
// series-truncation drift.
const agcResyncInterval = 256

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// GainDB returns the current loop gain.
func (a *AGC) GainDB() float64 { return a.gainDB }

// SetFreeze holds (true) or releases (false) the gain.
func (a *AGC) SetFreeze(f bool) { a.cfg.Freeze = f }

// Reset restores the initial gain and estimator.
func (a *AGC) Reset() {
	a.gainDB = clamp(a.cfg.InitialGainDB, a.cfg.MinGainDB, a.cfg.MaxGainDB)
	a.gainLin = units.DBToVoltageGain(a.gainDB)
	a.est = units.DBmToWatts(a.cfg.TargetDBm)
}

// ProcessSample amplifies one sample and updates the loop.
//
// The loop logic is the classical dB-domain control law, but the hot path
// works from cached derivatives: the linear gain is recomputed only when the
// gain actually moves, and the error logarithm is skipped entirely while a
// slew clamp is active (the step is then the clamp constant regardless of
// the error magnitude, tested against the precomputed power ratios).
func (a *AGC) ProcessSample(x complex128) complex128 {
	y := complex(a.gainLin*real(x), a.gainLin*imag(x))
	if !a.cfg.Freeze {
		p := real(y)*real(y) + imag(y)*imag(y)
		a.est += a.alpha * (p - a.est)
		if a.est > 0 {
			u := a.est * a.invTarget // output power as a ratio of the target
			var step float64
			switch {
			case u >= a.uAttack:
				// Output far too hot: the attack slew bound applies.
				step = -attackClampDB
			case u <= a.uRelease:
				// Output far too quiet: creep up at the release slew cap.
				// The cap sits far below the attack so idle-channel gain
				// ramps stay gentle (a fast release would turn the residual
				// DC offset into a correlated ramp that confuses packet
				// detection downstream).
				step = releaseClampDB
			default:
				// Unclamped regime: the step needs the actual error
				// magnitude. Near lock (u close to 1, where the loop spends
				// most samples) the direct series applies; further out the
				// range-reduced series takes over — either way, no library
				// logarithm in the loop.
				var errDB float64
				if u > 0.5 && u < 2 {
					errDB = -tenOverLn10 * lnNear1(u)
				} else {
					errDB = -tenOverLn10 * lnWide(u)
				}
				if errDB < 0 {
					step = a.attack * errDB
				} else {
					step = a.release * errDB
				}
			}
			g := clamp(a.gainDB+step, a.cfg.MinGainDB, a.cfg.MaxGainDB)
			//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
			if g != a.gainDB {
				d := g - a.gainDB
				a.gainDB = g
				a.resync++
				if a.resync >= agcResyncInterval || d > 2 || d < -2 {
					a.gainLin = units.DBToVoltageGain(g)
					a.resync = 0
				} else {
					a.gainLin *= expSmall(d * lnTenOver20)
				}
			}
		}
	}
	return y
}

// Process amplifies a frame in place and returns it. The loop body performs
// exactly the arithmetic of ProcessSample, but keeps the loop state (gain,
// power estimate, resync counter) in locals across the frame — the AGC runs
// at the composite oversampled rate, making this the receiver's longest
// per-sample loop.
func (a *AGC) Process(x []complex128) []complex128 {
	if a.cfg.Freeze {
		g := a.gainLin
		for i, v := range x {
			x[i] = complex(g*real(v), g*imag(v))
		}
		return x
	}
	var (
		gainLin = a.gainLin
		gainDB  = a.gainDB
		est     = a.est
		resync  = a.resync
		alpha   = a.alpha
		invT    = a.invTarget
		uAtt    = a.uAttack
		uRel    = a.uRelease
		attack  = a.attack
		release = a.release
		minG    = a.cfg.MinGainDB
		maxG    = a.cfg.MaxGainDB
	)
	for i, v := range x {
		yr := gainLin * real(v)
		yi := gainLin * imag(v)
		x[i] = complex(yr, yi)
		p := yr*yr + yi*yi
		est += alpha * (p - est)
		if est > 0 {
			u := est * invT
			var step float64
			switch {
			case u >= uAtt:
				step = -attackClampDB
			case u <= uRel:
				step = releaseClampDB
			default:
				var errDB float64
				if u > 0.5 && u < 2 {
					errDB = -tenOverLn10 * lnNear1(u)
				} else {
					errDB = -tenOverLn10 * lnWide(u)
				}
				if errDB < 0 {
					step = attack * errDB
				} else {
					step = release * errDB
				}
			}
			g := clamp(gainDB+step, minG, maxG)
			//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
			if g != gainDB {
				d := g - gainDB
				gainDB = g
				resync++
				if resync >= agcResyncInterval || d > 2 || d < -2 {
					gainLin = units.DBToVoltageGain(g)
					resync = 0
				} else {
					gainLin *= expSmall(d * lnTenOver20)
				}
			}
		}
	}
	a.gainLin, a.gainDB, a.est, a.resync = gainLin, gainDB, est, resync
	return x
}

// ADCConfig parameterizes the analog-to-digital converter model.
type ADCConfig struct {
	// Bits is the resolution per I/Q dimension (0 disables quantization).
	Bits int
	// FullScaleDBm is the clipping level: a complex sample whose I or Q
	// magnitude exceeds the full-scale amplitude sqrt(P_fs) clips.
	FullScaleDBm float64
}

// ADC quantizes and clips the baseband signal. It implements Block.
type ADC struct {
	cfg  ADCConfig
	fs   float64 // full-scale amplitude per dimension
	step float64
	clip int // clipped sample count
}

// NewADC builds the converter model.
func NewADC(cfg ADCConfig) (*ADC, error) {
	if cfg.Bits < 0 || cfg.Bits > 24 {
		return nil, fmt.Errorf("rf: ADC resolution %d bits out of range", cfg.Bits)
	}
	a := &ADC{cfg: cfg, fs: units.DBmToAmplitude(cfg.FullScaleDBm)}
	if cfg.Bits > 0 {
		a.step = 2 * a.fs / float64(int(1)<<cfg.Bits)
	}
	return a, nil
}

// ClippedSamples returns how many samples clipped since the last Reset.
func (a *ADC) ClippedSamples() int { return a.clip }

// Reset clears the clip counter.
func (a *ADC) Reset() { a.clip = 0 }

func (a *ADC) quantize(v float64) (float64, bool) {
	clipped := false
	if v > a.fs {
		v, clipped = a.fs, true
	} else if v < -a.fs {
		v, clipped = -a.fs, true
	}
	if a.step > 0 {
		v = (math.Floor(v/a.step) + 0.5) * a.step
		// Mid-rise quantizer: keep the reconstruction inside full scale.
		if v > a.fs {
			v = a.fs - a.step/2
		}
		if v < -a.fs {
			v = -a.fs + a.step/2
		}
	}
	return v, clipped
}

// ProcessSample converts one sample.
func (a *ADC) ProcessSample(x complex128) complex128 {
	i, ci := a.quantize(real(x))
	q, cq := a.quantize(imag(x))
	if ci || cq {
		a.clip++
	}
	return complex(i, q)
}

// Process converts a frame in place and returns it.
func (a *ADC) Process(x []complex128) []complex128 {
	for i, v := range x {
		x[i] = a.ProcessSample(v)
	}
	return x
}

// convertKeep converts the frame x as Process does and appends the samples
// at indices first, first+factor, ... to dst — ADC then a decimator without
// anti-alias filter in one pass. It returns dst and the number of samples in
// x that clipped. A sample that is not kept is only tested for clipping,
// since its converted value is never read; the clip test is quantize's own.
func (a *ADC) convertKeep(dst, x []complex128, first, factor int) ([]complex128, int) {
	clips := 0
	fs := a.fs
	next := first
	for i, v := range x {
		if i == next {
			next += factor
			re, ci := a.quantize(real(v))
			im, cq := a.quantize(imag(v))
			if ci || cq {
				clips++
			}
			dst = append(dst, complex(re, im))
			continue
		}
		if re, im := real(v), imag(v); re > fs || re < -fs || im > fs || im < -fs {
			clips++
		}
	}
	return dst, clips
}
