package kernels

import "math"

//go:generate sh -c "go run ./gen > acs_gen.go"

// The 802.11a rate-1/2 mother code: constraint length 7, generators 133/171
// octal. The add-compare-select step iterates over target states; target s
// has the two predecessors p(r) = ((s<<1)|r)&63, both transitions shifting
// in input bit s>>5. The branch outputs depend only on the 7-bit register
// (s>>5)<<6 | p(r), so they collapse into per-edge sign selectors indexed by
// (s<<1)|r.
const (
	acsConstraint = 7
	// ACSStates is the trellis state count (64) shared with the decoder.
	ACSStates = 1 << (acsConstraint - 1)
	acsGenA   = 0o133
	acsGenB   = 0o171
)

// acsSelA/acsSelB select, per edge, the sign of the step's A/B branch
// metric: 0 keeps +m (the encoder emits coded bit 0 there), 1 selects -m.
var acsSelA, acsSelB [2 * ACSStates]uint8

func acsParity7(v int) uint8 {
	v &= 0x7F
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return uint8(v & 1)
}

func init() {
	for s := 0; s < ACSStates; s++ {
		for r := 0; r < 2; r++ {
			p := ((s << 1) | r) & (ACSStates - 1)
			reg := (s>>5)<<6 | p
			acsSelA[s<<1|r] = acsParity7(reg & acsGenA)
			acsSelB[s<<1|r] = acsParity7(reg & acsGenB)
		}
	}
}

// acsStep dispatches one clean trellis step to the active tier. The AVX2
// tier runs the same 32-butterfly schedule four butterflies per vector; each
// butterfly is an unchanged scalar chain (see simd_amd64.s), so both tiers
// are bit-identical to acsStepGo.
//
//lint:hotpath
func acsStep(next, metric *[64]float64, mA, mB float64) uint64 {
	if useSIMD {
		return acsStepSIMD(next, metric, mA, mB)
	}
	return acsStepGo(next, metric, mA, mB)
}

// ACSStepRef is the retained naive reference for the unrolled ACS kernel: the
// table-driven butterfly loop the decoder shipped with before internal/kernels
// existed. It is the differential-test oracle and must stay semantically
// frozen.
//
// Selecting the negated value -m is bit-identical to the textbook "bm -= m"
// formulation because -1.0*m and m-x == m+(-x) are exact in IEEE-754. Per
// target the even edge is visited first with a strict >, so metric ties keep
// the lower predecessor; starting from -Inf reproduces unreached-predecessor
// and NaN-metric handling (never selected).
func ACSStepRef(next, metric *[64]float64, mA, mB float64) uint64 {
	av := [2]float64{mA, -mA}
	bv := [2]float64{mB, -mB}
	nInf := math.Inf(-1)
	var dec uint64
	for s := 0; s < ACSStates/2; s++ {
		// Butterfly: targets s and s+32 share the predecessor pair
		// p0 = 2s, p0|1, and their branch outputs are exact complements
		// (both generators include the top register bit, so flipping the
		// shifted-in bit flips both coded bits).
		p0 := s << 1
		m0, m1 := metric[p0], metric[p0|1]
		a0, b0 := av[acsSelA[p0]&1], bv[acsSelB[p0]&1]
		a1, b1 := av[acsSelA[p0|1]&1], bv[acsSelB[p0|1]&1]

		c0 := (m0 + a0) + b0
		c1 := (m1 + a1) + b1
		best := nInf
		if c0 > best {
			best = c0
		}
		if c1 > best {
			best = c1
			dec |= 1 << uint(s)
		}
		next[s] = best

		d0 := (m0 - a0) - b0
		d1 := (m1 - a1) - b1
		best = nInf
		if d0 > best {
			best = d0
		}
		if d1 > best {
			best = d1
			dec |= 1 << uint(s+ACSStates/2)
		}
		next[s+ACSStates/2] = best
	}
	return dec
}
