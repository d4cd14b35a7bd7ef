package measure

import (
	"fmt"
	"math"

	"wlansim/internal/phy"
	"wlansim/internal/units"
)

// EVMResult summarizes an error-vector-magnitude measurement over equalized
// constellation points (paper §5.2: the distance between each received
// symbol and its ideal constellation point, before Viterbi decoding).
type EVMResult struct {
	// RMS is the root-mean-square error vector magnitude normalized to the
	// constellation's rms symbol amplitude (a fraction, not percent).
	RMS float64
	// Peak is the largest single-symbol EVM.
	Peak float64
	// Symbols is the number of measured constellation points.
	Symbols int
}

// DB returns the rms EVM in dB (20*log10).
func (r EVMResult) DB() float64 {
	if r.RMS <= 0 {
		return math.Inf(-1)
	}
	return units.VoltageGainToDB(r.RMS)
}

// Percent returns the rms EVM in percent.
func (r EVMResult) Percent() float64 { return r.RMS * 100 }

// String formats the result.
func (r EVMResult) String() string {
	return fmt.Sprintf("EVM %.2f%% (%.1f dB) over %d symbols", r.Percent(), r.DB(), r.Symbols)
}

// EVM measures the blind (decision-directed) EVM of equalized data carriers:
// each point is compared against the nearest constellation point of the
// given modulation. carriers holds one slice of 48 points per OFDM symbol.
//
// The nearest-point squared distance is computed separably, without a hard
// decision: the clause-17 constellations are square grids over phy's
// per-axis levels, so a carrier's error is fl(min_a dI[a] + min_b dQ[b])
// with dI[a] = (re y - I[a])^2 and dQ[b] = (im y - Q[b])^2. That is
// bit-identical to the squared distance to the nearest point by the
// argument phy.DemapSoftAppend documents: every joint distance is the
// rounded sum of the same per-axis squares, IEEE addition is monotone in
// each argument, so the joint minimum is attained at the axis minimizers —
// whichever point a tie-breaking scan would pick, its distance is that
// value. A NaN component makes its axis minimum NaN (builtin min), so the
// carrier's error is NaN exactly when the nearest-point scan's is, up to
// the NaN payload; an infinite component squares to +Inf either way.
func EVM(carriers [][]complex128, m phy.Modulation) (EVMResult, error) {
	var res EVMResult
	levI, levQ, err := phy.AxisLevels(m)
	if err != nil {
		return res, err
	}
	// Peak is the square root of the largest squared error: Sqrt is
	// correctly rounded and monotone, so this equals the largest per-carrier
	// root, and NaN errors fail the compare either way.
	var acc, peak2 float64
	for _, sym := range carriers {
		for _, y := range sym {
			e2 := nearestAxisSq(real(y), levI) + nearestAxisSq(imag(y), levQ)
			acc += e2
			if e2 > peak2 {
				peak2 = e2
			}
		}
		res.Symbols += len(sym)
	}
	if res.Symbols == 0 {
		return res, fmt.Errorf("measure: no symbols for EVM")
	}
	// Unit-energy constellations: normalization amplitude is 1.
	res.RMS = math.Sqrt(acc / float64(res.Symbols))
	res.Peak = math.Sqrt(peak2)
	return res, nil
}

// nearestAxisSq returns the smallest squared distance from x to a level.
func nearestAxisSq(x float64, levels []float64) float64 {
	best := math.Inf(1)
	for _, l := range levels {
		d := x - l
		best = min(best, d*d)
	}
	return best
}
