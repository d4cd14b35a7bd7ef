// Package rxdsp implements the digital receiver of the 802.11a physical
// layer: packet detection and timing synchronization on the short preamble,
// coarse and fine carrier-frequency-offset estimation and correction,
// channel estimation from the long preamble, one-tap equalization with
// pilot-based common-phase-error tracking, SIGNAL decoding, and the full
// packet receive chain. A genie-aided ideal receiver is provided for EVM
// measurements (paper §5.2).
package rxdsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"wlansim/internal/kernels"
	"wlansim/internal/phy"
)

// DetectResult describes a detected packet.
type DetectResult struct {
	// StartIndex is the estimated first sample of the short preamble.
	StartIndex int
	// CoarseCFO is the estimated carrier frequency offset in cycles per
	// sample from the short preamble autocorrelation.
	CoarseCFO float64
	// Metric is the peak normalized autocorrelation (0..1).
	Metric float64
}

// Detector finds 802.11a packets by delay-and-correlate over the 16-sample
// periodic short training sequence, gated by an energy-rise condition so
// that idle-channel residue (noise shaped by the channel filter, wandering
// DC offsets) cannot fake a plateau.
type Detector struct {
	// Threshold is the normalized autocorrelation level treated as signal
	// (default 0.6; the plateau metric saturates at SNR/(1+SNR), so 0.6
	// keeps packets near 4 dB SNR detectable).
	Threshold float64
	// MinPlateau is the number of consecutive above-threshold lags required
	// (default 64; the short preamble provides ~128).
	MinPlateau int
	// EnergyRise is the factor by which the window energy must exceed the
	// tracked idle floor (default 2.5, about 4 dB). Set to 1 to disable
	// the gate.
	EnergyRise float64
}

// NewDetector returns a detector with default parameters.
func NewDetector() *Detector {
	return &Detector{Threshold: 0.6, MinPlateau: 64, EnergyRise: 2.5}
}

const shortLag = phy.ShortSymbolPeriod // 16

// Detect scans x for the first packet at or after index from. It returns an
// error when no plateau satisfies the threshold.
func (d *Detector) Detect(x []complex128, from int) (DetectResult, error) {
	threshold := d.Threshold
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.6
	}
	plateau := d.MinPlateau
	if plateau <= 0 {
		plateau = 64
	}
	const window = 32 // correlation window length
	need := shortLag + window + 1
	if from < 0 {
		from = 0
	}
	if len(x)-from < need+plateau {
		return DetectResult{}, fmt.Errorf("rxdsp: signal too short for detection (%d samples)", len(x)-from)
	}

	// Sliding sums of c[n] = sum_k x[n+k] conj(x[n+k+16]) and the energy
	// e[n] = sum_k |x[n+k+16]|^2.
	var c complex128
	var e float64
	abs2 := func(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
	for k := 0; k < window; k++ {
		c += x[from+k] * cmplx.Conj(x[from+k+shortLag])
		e += abs2(x[from+k+shortLag])
	}

	rise := d.EnergyRise
	if rise < 1 {
		rise = 2.5
	}

	run := 0
	runStart := -1
	var accC complex128
	floor := math.Inf(1) // decaying minimum tracker of the idle energy
	limit := len(x) - need
	thr2 := threshold * threshold
	for n := from; n <= limit; n++ {
		if e < floor {
			floor = e
		} else {
			floor *= 1.0005 // let the floor recover slowly
		}
		// The threshold test |c|/e > threshold is evaluated on squares so the
		// scan pays no square root or division per sample; the actual metric
		// is only materialized on the return path.
		above := e > 1e-30 && abs2(c) > thr2*e*e
		if above && (rise <= 1 || e > rise*floor) {
			if run == 0 {
				runStart = n
				accC = 0
			}
			run++
			accC += c
			if run >= plateau {
				cfo := -cmplx.Phase(accC) / (2 * math.Pi * shortLag)
				m := math.Sqrt(abs2(c)) / e
				return DetectResult{StartIndex: runStart, CoarseCFO: cfo, Metric: m}, nil
			}
		} else {
			run = 0
		}
		// Slide the window by one sample.
		if n+window <= limit+need-1 && n+window+shortLag < len(x) {
			c -= x[n] * cmplx.Conj(x[n+shortLag])
			c += x[n+window] * cmplx.Conj(x[n+window+shortLag])
			e -= abs2(x[n+shortLag])
			e += abs2(x[n+window+shortLag])
		}
	}
	return DetectResult{}, fmt.Errorf("rxdsp: no packet detected")
}

// FineTiming locates the start of the long training symbols by
// cross-correlating with the known time-domain long symbol. searchFrom is an
// index near the expected long-preamble guard start; the search spans
// searchLen samples. It returns the index of the first sample of T1 (the
// first full long symbol).
func FineTiming(x []complex128, searchFrom, searchLen int) (int, error) {
	ref := longTD
	if searchFrom < 0 {
		searchFrom = 0
	}
	end := searchFrom + searchLen + len(ref) + 64
	if end > len(x) {
		end = len(x)
	}
	if end-searchFrom < len(ref)+64 {
		return 0, fmt.Errorf("rxdsp: fine timing window too small")
	}
	seg := x[searchFrom:end]
	best, bestMag := -1, 0.0
	// Look for the combined peak of two correlations 64 samples apart
	// (T1 and T2), which is unambiguous against the 16-periodic short
	// preamble.
	for l := 0; l+len(ref)+64 <= len(seg); l++ {
		s1, s2 := corrPair(seg, ref, l)
		if m := cmplx.Abs(s1) + cmplx.Abs(s2); m > bestMag {
			best, bestMag = l, m
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("rxdsp: fine timing failed")
	}
	return searchFrom + best, nil
}

// corrPair evaluates the two conjugate dot products sum(seg[l+k]*conj(ref[k]))
// and sum(seg[l+64+k]*conj(ref[k])) via kernels.CorrPair, which runs the four
// accumulator chains split-complex (scalar ILP on the Go tier, one ymm lane
// each on the AVX2 tier) and is bit-exact against the naive complex form.
// Bit-exact vs corrPairRef (TestCorrPairEquivalence).
func corrPair(seg, ref []complex128, l int) (s1, s2 complex128) {
	return kernels.CorrPair(seg[l:], seg[l+64:], ref)
}

// FineCFO estimates the residual frequency offset (cycles per sample) from
// the two long training symbols starting at t1Start.
func FineCFO(x []complex128, t1Start int) (float64, error) {
	if t1Start < 0 || t1Start+128 > len(x) {
		return 0, fmt.Errorf("rxdsp: long symbols out of range")
	}
	c := dotConj64(x[t1Start:], x[t1Start+64:])
	return -cmplx.Phase(c) / (2 * math.Pi * 64), nil
}

// dotConj64 returns sum over k<64 of u[k]*conj(v[k]) in split-complex form,
// bit-exact vs dotConj64Ref by the same exact-negation argument as corrPair.
func dotConj64(u, v []complex128) complex128 {
	u = u[:64]
	v = v[:64]
	var cre, cim float64
	for k := range u {
		a, b := real(u[k]), imag(u[k])
		c, d := real(v[k]), imag(v[k])
		cre += a*c + b*d
		cim += b*c - a*d
	}
	return complex(cre, cim)
}

// longTD is the first full long training symbol, built once at package
// initialization and read-only afterwards, so concurrent receivers share it.
var longTD = phy.LongPreamble()[32:96]
