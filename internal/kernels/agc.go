package kernels

import "math"

// The AGC lane kernel is the receiver's feedback automatic gain control
// law, stepped over several independent lanes (sweep points) at once. A lane
// is a frame amplified in place by its loop gain while the loop updates from
// the output power; its state is an AGCLane. The law is the classical
// dB-domain loop worked from cached derivatives: the linear gain is updated
// only when the gain actually moves (incrementally, by a truncated series of
// the dB step), and the error logarithm is skipped while a slew clamp is
// active, the step then being the clamp constant whatever the error.
//
// agcRunGo is the law's one Go body. The AVX2 tier (agcQuadAsm, agcOctAsm)
// runs four lanes per vector without branches: it computes every regime's
// step and selects per lane with compare masks, and keeps agcRunGo's
// operation order and rounding, so each lane is bit-identical to the Go
// tier. The exact recompute of the linear gain every AGCResyncInterval
// moves needs math.Pow, so it stays in Go: the vector tier returns after
// the sample at which a lane's count reaches the interval and the caller
// recomputes it.

// Slew bounds of the gain per sample, in dB.
const (
	AGCAttackClampDB  = 1.5
	AGCReleaseClampDB = 0.01
)

// AGCResyncInterval is how many incremental linear-gain updates a lane
// applies before its gain is recomputed exactly from the dB value, bounding
// series-truncation drift. The count survives a packet restart, so a
// packet's last gain bits depend on the packets before it.
const AGCResyncInterval = 256

// lnTenOver20 converts a dB step to a natural-log voltage-gain exponent:
// 10^(dB/20) = e^(dB*lnTenOver20).
const lnTenOver20 = math.Ln10 / 20

// tenOverLn10 converts a natural log of a power ratio to dB.
const tenOverLn10 = 10 / math.Ln10

// AGCLaw holds the constants of one AGC configuration's control law.
type AGCLaw struct {
	Alpha     float64 // power-estimator smoothing per sample
	Attack    float64 // fraction of the (negative) dB error applied per sample
	Release   float64 // dB per dB of positive error per sample
	InvTarget float64 // 1 / target output power in watts
	// UAttack and URelease are the estimate/target power ratios beyond which
	// the attack and release slews clamp: errDB <= -AGCAttackClampDB/Attack
	// and errDB >= AGCReleaseClampDB/Release respectively.
	UAttack, URelease    float64
	MinGainDB, MaxGainDB float64
	Freeze               bool // hold every lane's gain
}

// AGCLane is one lane's loop state.
type AGCLane struct {
	GainLin float64 // 10^(GainDB/20), tracked incrementally
	GainDB  float64
	Est     float64 // smoothed output power estimate (watts)
	Resync  int     // incremental gain updates since the last exact one
}

// AGCLanes amplifies the equal-length lanes in place and advances the loop,
// lane l on state st[l]. The lanes step interleaved, sample i of every lane
// before sample i+1 of any, and never mix. The state carries across calls,
// so a packet may be stepped whole or in consecutive blocks with identical
// output. Every Resync must lie in [0, AGCResyncInterval), which the law
// maintains.
//
//lint:hotpath
func AGCLanes(lanes [][]complex128, st []AGCLane, law *AGCLaw) {
	if useSIMD {
		agcLanesSIMD(lanes, st, law)
		return
	}
	agcLanesGo(lanes, st, law)
}

// agcLanesGo is the pure-Go tier of AGCLanes.
//
//lint:hotpath
func agcLanesGo(lanes [][]complex128, st []AGCLane, law *AGCLaw) {
	if len(lanes) == 0 {
		return
	}
	st = st[:len(lanes)]
	if law.Freeze {
		agcFrozen(lanes, st)
		return
	}
	agcRunGo(lanes, 0, len(lanes[0]), st, law, true)
}

// agcFrozen applies the held gains: a frozen loop has no recurrence.
//
//lint:hotpath
func agcFrozen(lanes [][]complex128, st []AGCLane) {
	for l, lane := range lanes {
		g := st[l].GainLin
		for i, v := range lane {
			lane[i] = complex(g*real(v), g*imag(v))
		}
	}
}

// agcResync recomputes the linear gain exactly once the lane has applied
// AGCResyncInterval incremental updates.
func agcResync(s *AGCLane) {
	if s.Resync >= AGCResyncInterval {
		//lint:ignore unitsdiscipline the kernel layer imports only math; this is units.DBToVoltageGain's expression, bit for bit
		s.GainLin = math.Pow(10, s.GainDB/20)
		s.Resync = 0
	}
}

// agcRunGo is the law's one Go body: it steps the lanes (equal lengths)
// from sample i up to n on the states st, lane l amplified in place by its
// gain while its loop advances. A gain move always takes the incremental
// update. A lane whose Resync then reaches AGCResyncInterval has its gain
// recomputed exactly when exact is set; otherwise agcRunGo returns the index
// after that sample, leaving the incremental update for the caller to
// replace (agcResync). It returns n when it ran to the end.
//
// The incremental update is exact enough without a size guard: a step never
// exceeds AGCAttackClampDB in magnitude (up to the logarithm series' error),
// because the attack step is bounded below by its clamp (u >= UAttack takes
// the clamp; below it the attack error is smaller), the release step stays
// under AGCReleaseClampDB the same way, and the gain clamp only shrinks a
// step of a gain within its bounds. So |d*lnTenOver20| <= 0.173, where
// expSmall's series applies, and the resync count is the only reason to
// leave the vector tier.
//
//lint:hotpath
func agcRunGo(lanes [][]complex128, i, n int, st []AGCLane, law *AGCLaw, exact bool) int {
	var (
		alpha   = law.Alpha
		invT    = law.InvTarget
		uAtt    = law.UAttack
		uRel    = law.URelease
		attack  = law.Attack
		release = law.Release
		minG    = law.MinGainDB
		maxG    = law.MaxGainDB
	)
	for ; i < n; i++ {
		stop := false
		for l := range st {
			s := &st[l]
			v := lanes[l][i]
			gl := s.GainLin
			yr := gl * real(v)
			yi := gl * imag(v)
			lanes[l][i] = complex(yr, yi)
			p := yr*yr + yi*yi
			e := s.Est + alpha*(p-s.Est)
			s.Est = e
			if !(e > 0) {
				continue
			}
			u := e * invT // output power as a ratio of the target
			var step float64
			switch {
			case u >= uAtt:
				// Output far too hot: the attack slew bound applies.
				step = -AGCAttackClampDB
			case u <= uRel:
				// Output far too quiet: creep up at the release slew cap.
				// The cap sits far below the attack so idle-channel gain
				// ramps stay gentle (a fast release would turn the residual
				// DC offset into a correlated ramp that confuses packet
				// detection downstream).
				step = AGCReleaseClampDB
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
					step = attack * errDB
				} else {
					step = release * errDB
				}
			}
			g := agcClamp(s.GainDB+step, minG, maxG)
			//lint:ignore floateq exact no-movement check: skips the gain update only when the clamp returned the identical value, any tolerance would freeze small steps
			if g != s.GainDB {
				d := g - s.GainDB
				s.GainDB = g
				s.Resync++
				s.GainLin = gl * expSmall(d*lnTenOver20)
				if s.Resync >= AGCResyncInterval {
					if exact {
						agcResync(s)
					} else {
						stop = true
					}
				}
			}
		}
		if stop {
			return i + 1
		}
	}
	return n
}

func agcClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// expSmall returns e^x for small |x| (the AGC's steps keep |x| <= 0.173)
// via truncated series, within ~1e-7 relative of math.Exp there. Near the
// AGC's lock point the step shrinks to ~1e-4, where the truncation error is
// below 1e-27 relative; the periodic exact recompute bounds accumulated
// drift regardless.
func expSmall(x float64) float64 {
	return 1 + x*(1+x/2*(1+x/3*(1+x/4*(1+x/5))))
}

// lnWide returns ln(u) for any finite u > 0 via Frexp range reduction: with
// u = m*2^k and m in [0.5, 1), ln(u) = ln(2m) + (k-1) ln 2, and 2m lies in
// [1, 2) where lnNear1's series applies. Max error ~4e-7 at the mantissa
// edge, independent of magnitude — cheaper than math.Log because the AGC's
// control law never needs more than ~1e-4 dB resolution.
func lnWide(u float64) float64 {
	m, k := math.Frexp(u)
	return lnNear1(2*m) + float64(k-1)*math.Ln2
}

// lnNear1 returns ln(u) for u in (0.5, 2) via the atanh series
// ln(u) = 2 atanh((u-1)/(u+1)), accurate to ~4e-7 at the interval edges and
// far better near u = 1 where the AGC spends almost all of its samples.
func lnNear1(u float64) float64 {
	z := (u - 1) / (u + 1)
	z2 := z * z
	return 2 * z * (1 + z2*(1.0/3+z2*(1.0/5+z2*(1.0/7+z2*(1.0/9+z2/11)))))
}

// agcQuadGo and agcOctGo are the Go twins of agcQuadAsm and agcOctAsm:
// agcRunGo on four and eight lanes, returning at a resync.
//
//lint:hotpath
func agcQuadGo(lanes [][]complex128, i, n int, st *[4]AGCLane, law *AGCLaw) int {
	return agcRunGo(lanes, i, n, st[:], law, false)
}

//lint:hotpath
func agcOctGo(lanes [][]complex128, i, n int, st *[8]AGCLane, law *AGCLaw) int {
	return agcRunGo(lanes, i, n, st[:], law, false)
}
