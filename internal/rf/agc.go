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
	alpha   float64
	attack  float64 // fraction of the (negative) dB error applied per sample
	release float64 // dB per dB of positive error per sample

	// Precomputed so the loop needs no Log10 per sample while either slew
	// clamp is active.
	invTarget float64 // 1 / target power in watts
	uAttack   float64 // est/target ratio beyond which the attack slew clamps
	uRelease  float64 // est/target ratio below which the release slew clamps

	st [1]agcLane // Process's loop state: a lane of one
}

// agcLane is one lane's AGC loop state. The loop works from cached
// derivatives of the dB gain: the linear gain is tracked incrementally, so
// the loop needs no Pow per sample.
type agcLane struct {
	gainLin float64 // DBToVoltageGain(gainDB), tracked incrementally
	gainDB  float64
	est     float64 // smoothed output power estimate (watts)
	resync  int     // incremental gain updates since the last exact one
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
		alpha:   4 / cfg.TimeConstantSamples,
		attack:  0.2,
		release: 0.1 / cfg.TimeConstantSamples,
	}
	if a.alpha > 0.5 {
		a.alpha = 0.5
	}
	a.resetLane(&a.st[0])
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
// series-truncation drift. The count survives Reset, so a packet's last
// gain bits depend on the packets before it; the lane receiver keeps it per
// lane id.
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

// Reset restores the initial gain and estimator. The resync counter carries
// (see agcResyncInterval).
func (a *AGC) Reset() { a.resetLane(&a.st[0]) }

// Process amplifies a frame in place and returns it: the lane loop
// (stepLanes) over one lane, the AGC's own state.
func (a *AGC) Process(x []complex128) []complex128 {
	a.stepLanes([][]complex128{x}, a.st[:])
	return x
}

// resetLane performs Reset on the lane state s: the initial gain and
// estimator; resync carries.
func (a *AGC) resetLane(s *agcLane) {
	s.gainDB = clamp(a.cfg.InitialGainDB, a.cfg.MinGainDB, a.cfg.MaxGainDB)
	s.gainLin = units.DBToVoltageGain(s.gainDB)
	s.est = units.DBmToWatts(a.cfg.TargetDBm)
}

// stepLanes amplifies the equal-length lanes in place and updates the loop:
// the AGC's one control law, lane l on state st[l]. It steps the lanes
// interleaved — sample i of every lane before sample i+1 of any — and lanes
// never mix, so the interleave only overlaps the lanes' serial est -> log ->
// step -> exp -> gain dependency chains, which bound a single lane's
// throughput. The state carries across calls, so a packet may be stepped
// whole or in consecutive blocks with identical output; call resetLane on
// each lane at the top of each packet.
//
// The law is the classical dB-domain loop, worked from cached derivatives:
// the linear gain is updated only when the gain actually moves, and the
// error logarithm is skipped entirely while a slew clamp is active (the step
// is then the clamp constant regardless of the error magnitude, tested
// against the precomputed power ratios).
//
//lint:hotpath AGC lane loop: per-sample gain recurrence across lanes
func (a *AGC) stepLanes(lanes [][]complex128, st []agcLane) {
	L := len(lanes)
	if L == 0 {
		return
	}
	st = st[:L]
	if a.cfg.Freeze {
		// Frozen gain has no recurrence.
		for l, lane := range lanes {
			g := st[l].gainLin
			for i, v := range lane {
				lane[i] = complex(g*real(v), g*imag(v))
			}
		}
		return
	}
	n := len(lanes[0])
	var (
		alpha   = a.alpha
		invT    = a.invTarget
		uAtt    = a.uAttack
		uRel    = a.uRelease
		attack  = a.attack
		release = a.release
		minG    = a.cfg.MinGainDB
		maxG    = a.cfg.MaxGainDB
	)
	for i := 0; i < n; i++ {
		for l := range st {
			s := &st[l]
			v := lanes[l][i]
			gl := s.gainLin
			yr := gl * real(v)
			yi := gl * imag(v)
			lanes[l][i] = complex(yr, yi)
			p := yr*yr + yi*yi
			e := s.est + alpha*(p-s.est)
			s.est = e
			if e > 0 {
				u := e * invT // output power as a ratio of the target
				var step float64
				switch {
				case u >= uAtt:
					// Output far too hot: the attack slew bound applies.
					step = -attackClampDB
				case u <= uRel:
					// Output far too quiet: creep up at the release slew
					// cap. The cap sits far below the attack so idle-channel
					// gain ramps stay gentle (a fast release would turn the
					// residual DC offset into a correlated ramp that
					// confuses packet detection downstream).
					step = releaseClampDB
				default:
					// Unclamped regime: the step needs the actual error
					// magnitude. Near lock (u close to 1, where the loop
					// spends most samples) the direct series applies;
					// further out the range-reduced series takes over —
					// either way, no library logarithm in the loop.
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
				g := clamp(s.gainDB+step, minG, maxG)
				//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
				if g != s.gainDB {
					d := g - s.gainDB
					s.gainDB = g
					s.resync++
					if s.resync >= agcResyncInterval || d > 2 || d < -2 {
						s.gainLin = units.DBToVoltageGain(g)
						s.resync = 0
					} else {
						s.gainLin = gl * expSmall(d*lnTenOver20)
					}
				}
			}
		}
	}
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
