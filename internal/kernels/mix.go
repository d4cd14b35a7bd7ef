package kernels

import "math"

// The mix kernels apply the behavioral mixer's per-sample arithmetic — I/Q
// imbalance (y = mu·x + nu·conj(x)), optional LO rotation, conversion gain
// and DC offset — on planar frames. Each operation mirrors Go's complex128
// lowering exactly: every multiply's two products are rounded individually
// before their combine, conjugation negates the imaginary plane, and the
// final "+ dc" is applied unconditionally (adding a zero dc is not the
// identity for negative-zero components, so it cannot be skipped).
//
// The stochastic parts of the mixer (input-referred noise, phase-noise LO
// trajectories) stay with the caller: the frame arrives with noise already
// added and the LO trajectory materialized into planes, which is what makes
// the pass split bit-exact — the two random streams come from separate
// generators, so draining them in separate passes preserves each draw order.

// MixApplyLO applies imbalance, LO rotation, gain and DC in place on the
// planar frame xr/xi, with the LO trajectory in lor/loi. Bit-identical to
// MixApplyLORef on either dispatch tier (every sample is an independent
// chain, so the AVX2 tier processes four per vector with per-sample
// arithmetic unchanged).
//
//lint:hotpath
func MixApplyLO(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	if useSIMD {
		mixApplyLOSIMD(xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
		return
	}
	mixApplyLOGo(xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
}

// mixApplyLOGo is the pure-Go tier of MixApplyLO and the twin of
// mixApplyLOAsm.
//
//lint:hotpath
func mixApplyLOGo(xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	mixApplyLOTail(0, xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
}

// mixApplyLOTail runs the scalar per-sample pass from index i — the whole
// frame on the Go tier, the ragged remainder after the vector quads on the
// SIMD tier.
//
//lint:hotpath
func mixApplyLOTail(i int, xr, xi, lor, loi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for ; i < len(xr); i++ {
		vr, vi := xr[i], xi[i]
		ci := -vi
		yr := (mur*vr - mui*vi) + (nur*vr - nui*ci)
		yi := (mur*vi + mui*vr) + (nur*ci + nui*vr)
		lr, li := lor[i], loi[i]
		zr := yr*lr - yi*li
		zi := yr*li + yi*lr
		xr[i] = g*zr + dcr
		xi[i] = g*zi + dci
	}
}

// MixApply applies imbalance, gain and DC in place on the planar frame
// xr/xi. Bit-identical to MixApplyRef on either dispatch tier.
//
//lint:hotpath
func MixApply(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	if useSIMD {
		mixApplySIMD(xr, xi, mur, mui, nur, nui, g, dcr, dci)
		return
	}
	mixApplyGo(xr, xi, mur, mui, nur, nui, g, dcr, dci)
}

// mixApplyGo is the pure-Go tier of MixApply and the twin of mixApplyAsm.
//
//lint:hotpath
func mixApplyGo(xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	mixApplyTail(0, xr, xi, mur, mui, nur, nui, g, dcr, dci)
}

// mixApplyTail runs the scalar per-sample pass from index i.
//
//lint:hotpath
func mixApplyTail(i int, xr, xi []float64, mur, mui, nur, nui, g, dcr, dci float64) {
	for ; i < len(xr); i++ {
		vr, vi := xr[i], xi[i]
		ci := -vi
		yr := (mur*vr - mui*vi) + (nur*vr - nui*ci)
		yi := (mur*vi + mui*vr) + (nur*ci + nui*vr)
		xr[i] = g*yr + dcr
		xi[i] = g*yi + dci
	}
}

// LOTable is a precomputed one-period table of LO phasors for a rational
// offset/sample-rate ratio k/n (in lowest terms or not — the table size is
// n). Sample t carries the phasor at table index (k·t) mod n, whose value is
// the exact math.Sincos of the rational phase 2π·((k·t) mod n)/n — the phase
// a drift-free recurrence would resynchronize to. A table replaces one
// transcendental evaluation (or one incremental rotation plus periodic
// renormalization) per sample with a load.
type LOTable struct {
	re, im []float64
	k, n   int
	idx    int // table index of the next sample
}

// NewLOTable builds the phasor table for offset/sample-rate ratio k/n.
// n must be positive; k may be any integer (negative offsets wrap).
func NewLOTable(k, n int) *LOTable {
	t := &LOTable{
		re: make([]float64, n),
		im: make([]float64, n),
		k:  ((k % n) + n) % n,
		n:  n,
	}
	for j := 0; j < n; j++ {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		t.re[j] = c
		t.im[j] = s
	}
	return t
}

// Fill writes the next len(re) phasors into the planes re/im, advancing the
// table position. Bit-identical to PhasorRef at the corresponding absolute
// sample indices (the table entries are those exact Sincos values).
//
//lint:hotpath
func (l *LOTable) Fill(re, im []float64) {
	j, k, n := l.idx, l.k, l.n
	tr, ti := l.re, l.im
	for i := range re {
		re[i] = tr[j]
		im[i] = ti[j]
		j += k
		if j >= n {
			j -= n
		}
	}
	l.idx = j
}

// Reset rewinds the table to sample index zero.
func (l *LOTable) Reset() { l.idx = 0 }

// Pos returns the table index of the next sample and the table size, letting
// a caller that interleaves tabled frames with a scalar recurrence
// resynchronize its own phase state.
func (l *LOTable) Pos() (idx, n int) { return l.idx, l.n }

// Peek returns the next sample's phasor without advancing the table.
func (l *LOTable) Peek() (re, im float64) { return l.re[l.idx], l.im[l.idx] }
