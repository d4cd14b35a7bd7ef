package phy

import (
	"fmt"
	"math"
)

// grayAxis maps the bit group b to the amplitude level for an axis with 2^n
// levels, per clause 17.3.5.7. The label's LSB is the first transmitted bit,
// so the clause's bit string "b0 b1 (b2)" reads from bit 0 upward.
func grayAxis(b int, n int) float64 {
	switch n {
	case 1:
		return float64(2*b - 1) // 0 -> -1, 1 -> +1
	case 2:
		// b0 b1: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
		switch b {
		case 0b00: // b0=0 b1=0
			return -3
		case 0b10: // b0=0 b1=1
			return -1
		case 0b11: // b0=1 b1=1
			return 1
		default: // 0b01: b0=1 b1=0
			return 3
		}
	case 3:
		// b0 b1 b2: 000,001,011,010,110,111,101,100 -> -7..+7.
		switch b {
		case 0b000: // 000
			return -7
		case 0b100: // 001
			return -5
		case 0b110: // 011
			return -3
		case 0b010: // 010
			return -1
		case 0b011: // 110
			return 1
		case 0b111: // 111
			return 3
		case 0b101: // 101
			return 5
		default: // 0b001: 100
			return 7
		}
	}
	return 0
}

// normalization returns K_mod, the amplitude normalization giving unit
// average symbol energy.
func normalization(m Modulation) float64 {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt(2)
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	default:
		return 1
	}
}

// constellationTable holds every point of a constellation with its bit label,
// plus the per-axis factorization the separable soft demapper works from.
type constellationTable struct {
	points []complex128
	labels []int // bit label, LSB = first transmitted bit
	nbpsc  int
	kmod   float64

	// Clause-17 constellations are square Gray grids: label bits 0..bitsI-1
	// select the I amplitude, bits bitsI..nbpsc-1 the Q amplitude, so
	// points[label] == complex(axisI[label&(2^bitsI-1)], axisQ[label>>bitsI])
	// (asserted at init). axisQ is the single level 0 for BPSK.
	axisI, axisQ []float64
	bitsI, bitsQ int
}

var tables = map[Modulation]*constellationTable{}

func init() {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		n := m.BitsPerSymbol()
		t := &constellationTable{nbpsc: n, kmod: normalization(m)}
		for label := 0; label < 1<<n; label++ {
			t.labels = append(t.labels, label)
			t.points = append(t.points, mapLabel(m, label))
		}
		switch m {
		case BPSK:
			t.bitsI, t.bitsQ = 1, 0
		case QPSK:
			t.bitsI, t.bitsQ = 1, 1
		case QAM16:
			t.bitsI, t.bitsQ = 2, 2
		case QAM64:
			t.bitsI, t.bitsQ = 3, 3
		}
		for k := 0; k < 1<<t.bitsI; k++ {
			t.axisI = append(t.axisI, t.kmod*grayAxis(k, t.bitsI))
		}
		if t.bitsQ == 0 {
			t.axisQ = []float64{0}
		} else {
			for q := 0; q < 1<<t.bitsQ; q++ {
				t.axisQ = append(t.axisQ, t.kmod*grayAxis(q, t.bitsQ))
			}
		}
		// The factorization must reproduce the point table exactly: the
		// separable demapper's correctness proof starts from this identity.
		for label, p := range t.points {
			//lint:ignore floateq the factorization identity must hold bit-exactly, not approximately
			if p != complex(t.axisI[label&(1<<t.bitsI-1)], t.axisQ[label>>t.bitsI]) {
				panic(fmt.Sprintf("phy: %v label %d does not factor over the axis tables", m, label))
			}
		}
		tables[m] = t
	}
}

// AxisLevels returns m's per-axis amplitude levels: every constellation
// point is complex(i[a], q[b]) for one I level and one Q level, bit for bit
// (BPSK has the single Q level 0). The slices are the shared constellation
// tables and must not be modified.
func AxisLevels(m Modulation) (i, q []float64, err error) {
	t, ok := tables[m]
	if !ok {
		return nil, nil, fmt.Errorf("phy: unknown modulation %d", m)
	}
	return t.axisI, t.axisQ, nil
}

// mapLabel maps an n-bit label (LSB first-transmitted) to a constellation
// point with unit average energy.
func mapLabel(m Modulation, label int) complex128 {
	k := normalization(m)
	switch m {
	case BPSK:
		return complex(k*grayAxis(label&1, 1), 0)
	case QPSK:
		return complex(k*grayAxis(label&1, 1), k*grayAxis((label>>1)&1, 1))
	case QAM16:
		return complex(k*grayAxis(label&3, 2), k*grayAxis((label>>2)&3, 2))
	case QAM64:
		return complex(k*grayAxis(label&7, 3), k*grayAxis((label>>3)&7, 3))
	default:
		return 0
	}
}

// MapBits maps coded bits to constellation symbols. len(bits) must be a
// multiple of the modulation's bits per symbol. Bits are consumed first-
// transmitted-first (the first bit of each group selects the I axis LSB).
func MapBits(bits []byte, m Modulation) ([]complex128, error) {
	return MapBitsInto(nil, bits, m)
}

// MapBitsInto is MapBits writing into dst (grown if its capacity is short,
// reused otherwise).
func MapBitsInto(dst []complex128, bits []byte, m Modulation) ([]complex128, error) {
	n := m.BitsPerSymbol()
	if n == 0 {
		return nil, fmt.Errorf("phy: unknown modulation %d", m)
	}
	if len(bits)%n != 0 {
		return nil, fmt.Errorf("phy: %d bits not a multiple of %d", len(bits), n)
	}
	count := len(bits) / n
	if cap(dst) < count {
		dst = make([]complex128, count)
	}
	out := dst[:count]
	points := tables[m].points
	for i := range out {
		label := 0
		for j := 0; j < n; j++ {
			label |= int(bits[i*n+j]&1) << j
		}
		out[i] = points[label]
	}
	return out, nil
}

// DemapHardAppend slices each received symbol to the nearest constellation
// point and appends the corresponding bits to dst, returning it (dst's
// capacity is reused).
func DemapHardAppend(dst []byte, symbols []complex128, m Modulation) ([]byte, error) {
	t, ok := tables[m]
	if !ok {
		return nil, fmt.Errorf("phy: unknown modulation %d", m)
	}
	out := dst
	for _, y := range symbols {
		best, bestD := 0, math.Inf(1)
		for i, p := range t.points {
			d := sqDist(y, p)
			if d < bestD {
				best, bestD = i, d
			}
		}
		label := t.labels[best]
		for j := 0; j < t.nbpsc; j++ {
			out = append(out, byte((label>>j)&1))
		}
	}
	return out, nil
}

// DemapSoftAppend computes max-log LLR metrics for each coded bit of each
// symbol and appends them to dst, returning it (dst's capacity is reused).
// Positive values favor bit 0 (matching the Viterbi decoder convention).
// csi optionally weights each symbol's metrics by its channel-state
// information (e.g. |H|^2); pass nil for unweighted metrics.
//
// The max-log metrics are computed separably: per symbol only the 2^bitsI +
// 2^bitsQ per-axis squared distances are formed, and each bit's nearest-point
// distances are reconstructed as axis-minimum sums. This is bit-identical to
// scanning all 2^nbpsc joint distances d[p] = aI[p] + aQ[p] (the frozen
// reference the differential test pins):
//
//   - each joint distance is the rounded sum of the exact per-axis squares,
//     so precomputing the axes reuses the identical operands;
//   - IEEE addition is monotone in each argument, so min_p(aI[p]+aQ[p]) over
//     any set that constrains one axis and leaves the other free equals
//     fl(min aI + min aQ) — bounded below by it via monotonicity and attained
//     at the axis minimizers;
//   - the minima scans keep the reference's +Inf seeds and strict-< compares,
//     so NaN axes (NaN symbols) leave +Inf exactly as the joint scan does.
//
// Per bit of the I group, d0/d1 then read fl(aMin0/1 + bMin) with bMin the
// unconstrained Q minimum (and symmetrically for the Q group), and the output
// keeps the reference's w*(d1-d0) arithmetic verbatim.
//
// The minima use the builtin min rather than the reference's strict-< scan;
// on this value class that is an identity. Squared axis distances are never
// -0 (a square rounds to +0), and per axis they are either all NaN (a NaN
// symbol component) or NaN-free (an ±Inf component squares to +Inf), so the
// only divergence from the scan is an all-NaN axis: the scan leaves +Inf,
// min propagates NaN, and either way every affected metric is NaN — with
// w*(Inf-Inf) producing the reference's NaNs — differing at most in NaN
// payload bits, which the exactness contract exempts.
func DemapSoftAppend(dst []float64, symbols []complex128, m Modulation, csi []float64) ([]float64, error) {
	t, ok := tables[m]
	if !ok {
		return nil, fmt.Errorf("phy: unknown modulation %d", m)
	}
	if csi != nil && len(csi) != len(symbols) {
		return nil, fmt.Errorf("phy: csi length %d != symbols %d", len(csi), len(symbols))
	}
	var ab [16]float64 // both axes of the largest clause-17 constellation
	nI, nQ := len(t.axisI), len(t.axisQ)
	a, b := ab[:nI:nI], ab[8:8+nQ]
	for si, y := range symbols {
		w := 1.0
		if csi != nil {
			w = csi[si]
		}
		yr, yi := real(y), imag(y)
		for k, x := range t.axisI {
			dr := yr - x
			a[k] = dr * dr
		}
		for q, x := range t.axisQ {
			di := yi - x
			b[q] = di * di
		}
		aMin, bMin := math.Inf(1), math.Inf(1)
		for _, v := range a {
			aMin = min(aMin, v)
		}
		for _, v := range b {
			bMin = min(bMin, v)
		}
		// LLR ~ (d1 - d0): positive when the nearest bit-0 point is
		// closer than the nearest bit-1 point.
		dst = demapAxisSoft(dst, a, t.bitsI, bMin, w)
		dst = demapAxisSoft(dst, b, t.bitsQ, aMin, w)
	}
	return dst, nil
}

// demapAxisSoft appends one axis group's max-log metrics: for each of the
// axis's bits, the partition minima over the bit-0/bit-1 coordinates, offset
// by the other axis's unconstrained minimum. The clause-17 axis sizes (2, 4,
// 8 coordinates for 1, 2, 3 bits) are unrolled into fixed pairwise min
// trees; min is associative and commutative on this value class (squared
// distances are never -0, and an axis is either NaN-free or all NaN — see
// DemapSoftAppend), so each tree yields the partition scan's exact minimum,
// and IEEE addition's commutativity makes the shared other+min offset
// bit-identical on both axes. Unlisted widths fall back to the reference's
// partition scan verbatim.
func demapAxisSoft(dst []float64, d []float64, bits int, other, w float64) []float64 {
	switch bits {
	case 1:
		t0, t1 := d[0]+other, d[1]+other
		return append(dst, w*(t1-t0))
	case 2:
		d = d[:4]
		m02, m13 := min(d[0], d[2]), min(d[1], d[3]) // bit 0: even vs odd
		m01, m23 := min(d[0], d[1]), min(d[2], d[3]) // bit 1: low vs high pair
		t0, t1 := m02+other, m13+other
		u0, u1 := m01+other, m23+other
		return append(dst, w*(t1-t0), w*(u1-u0))
	case 3:
		d = d[:8]
		e02, e13 := min(d[0], d[2]), min(d[1], d[3])
		e46, e57 := min(d[4], d[6]), min(d[5], d[7])
		t0, t1 := min(e02, e46)+other, min(e13, e57)+other // bit 0
		m01, m23 := min(d[0], d[1]), min(d[2], d[3])
		m45, m67 := min(d[4], d[5]), min(d[6], d[7])
		u0, u1 := min(m01, m45)+other, min(m23, m67)+other // bit 1
		v0, v1 := min(m01, m23)+other, min(m45, m67)+other // bit 2
		return append(dst, w*(t1-t0), w*(u1-u0), w*(v1-v0))
	}
	for j := 0; j < bits; j++ {
		d0, d1 := math.Inf(1), math.Inf(1)
		for k, v := range d {
			if (k>>j)&1 == 0 {
				d0 = min(d0, v)
			} else {
				d1 = min(d1, v)
			}
		}
		d0, d1 = d0+other, d1+other
		dst = append(dst, w*(d1-d0))
	}
	return dst
}

func sqDist(a, b complex128) float64 {
	dr := real(a) - real(b)
	di := imag(a) - imag(b)
	return dr*dr + di*di
}
