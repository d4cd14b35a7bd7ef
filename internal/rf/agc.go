package rf

import (
	"fmt"
	"math"

	"wlansim/internal/kernels"
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
// toward higher gain is slow, as in practical WLAN front ends. The control
// law is kernels.AGCLanes'; the AGC holds its configuration and constants.
// It implements Block.
type AGC struct {
	cfg AGCConfig
	law kernels.AGCLaw

	st [1]kernels.AGCLane // Process's loop state: a lane of one
}

// NewAGC builds the loop.
func NewAGC(cfg AGCConfig) (*AGC, error) {
	if cfg.MinGainDB > cfg.MaxGainDB {
		return nil, fmt.Errorf("rf: AGC gain bounds inverted (%g > %g)", cfg.MinGainDB, cfg.MaxGainDB)
	}
	if cfg.TimeConstantSamples <= 0 {
		cfg.TimeConstantSamples = 64
	}
	law := kernels.AGCLaw{
		Alpha:     min(4/cfg.TimeConstantSamples, 0.5),
		Attack:    0.2,
		Release:   0.1 / cfg.TimeConstantSamples,
		InvTarget: 1 / units.DBmToWatts(cfg.TargetDBm),
		MinGainDB: cfg.MinGainDB,
		MaxGainDB: cfg.MaxGainDB,
		Freeze:    cfg.Freeze,
	}
	// The slew clamps kick in at fixed error magnitudes; precompute the
	// equivalent est/target power ratios so the clamped regimes need no
	// logarithm: attack clamps at errDB <= -AGCAttackClampDB/attack, release
	// at errDB >= AGCReleaseClampDB/release.
	law.UAttack = math.Pow(10, kernels.AGCAttackClampDB/(10*law.Attack))
	law.URelease = math.Pow(10, -kernels.AGCReleaseClampDB/(10*law.Release))
	a := &AGC{cfg: cfg, law: law}
	a.resetLane(&a.st[0])
	return a, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reset restores the initial gain and estimator. The resync counter carries
// (see kernels.AGCResyncInterval): a packet's last gain bits depend on the
// packets before it, so the lane receiver keeps it per lane id.
func (a *AGC) Reset() { a.resetLane(&a.st[0]) }

// Process amplifies a frame in place and returns it: the lane law over one
// lane, the AGC's own state.
func (a *AGC) Process(x []complex128) []complex128 {
	kernels.AGCLanes([][]complex128{x}, a.st[:], &a.law)
	return x
}

// resetLane performs Reset on the lane state s: the initial gain and
// estimator; resync carries.
func (a *AGC) resetLane(s *kernels.AGCLane) {
	s.GainDB = clamp(a.cfg.InitialGainDB, a.cfg.MinGainDB, a.cfg.MaxGainDB)
	s.GainLin = units.DBToVoltageGain(s.GainDB)
	s.Est = units.DBmToWatts(a.cfg.TargetDBm)
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

// Process converts a frame in place and returns it: convertKeep keeping
// every sample.
func (a *ADC) Process(x []complex128) []complex128 {
	x, clips := a.convertKeep(x[:0], x, 0, 1)
	a.clip += clips
	return x
}

// convertKeep converts the frame x sample by sample as ProcessSample does
// and appends the samples at indices first, first+factor, ... to dst — ADC
// then a decimator without anti-alias filter in one pass. dst may be x[:0]:
// sample i is read before it is written. It returns dst and the number of samples in
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
