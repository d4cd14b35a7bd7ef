package phy

import (
	"fmt"
	"math"
	"testing"

	"wlansim/internal/randutil"
)

// uncodedBER is the exact bit error rate of Gray-mapped m with hard
// decisions over complex AWGN at the given Es/N0 (Cho & Yoon, "On the
// general BER expression of one- and two-dimensional amplitude
// modulations", IEEE Trans. Commun., 2002). Each term is
// e(k) = Q(k·d/σ) = ½·erfc(k·d/√N0): the probability that the noise on one
// axis (variance σ² = N0/2) crosses k odd multiples of the half-distance d
// between neighbouring levels, with d the constellation's normalization at
// unit symbol energy.
func uncodedBER(m Modulation, esN0 float64) float64 {
	d := normalization(m)
	e := func(k float64) float64 { return 0.5 * math.Erfc(k*d*math.Sqrt(esN0)) }
	switch m {
	case BPSK, QPSK:
		return e(1)
	case QAM16:
		return (3*e(1) + 2*e(3) - e(5)) / 4
	case QAM64:
		return (7*e(1) + 6*e(3) - e(5) + e(9) - e(13)) / 12
	}
	panic(fmt.Sprintf("no closed form for %v", m))
}

// TestUncodedAWGNBERMatchesTheory runs random bits through MapBits, complex
// AWGN from a seeded randutil stream and DemapHardAppend, and checks the
// counted bit errors against the closed forms at SNRs where the BER is
// between 1e-2 and 1e-3. The band is five binomial standard deviations,
// |errors − n·p| ≤ 5·√(n·p·(1−p)), about ±13% of the expected count at the
// lowest BER; a non-Gray label order or a wrong level spacing moves the
// count well outside it.
func TestUncodedAWGNBERMatchesTheory(t *testing.T) {
	const nBits = 12 << 16 // a whole number of symbols at 1, 2, 4 and 6 bits
	rng := randutil.NewRandDirect(20020601)
	bits := make([]byte, nBits)
	for _, row := range []struct {
		m      Modulation
		snrsDB []float64
	}{
		{BPSK, []float64{5, 6}},
		{QPSK, []float64{8, 9}},
		{QAM16, []float64{14, 16}},
		{QAM64, []float64{20, 22}},
	} {
		for _, snrDB := range row.snrsDB {
			esN0 := math.Pow(10, snrDB/10)
			p := uncodedBER(row.m, esN0)
			if p < 1e-3 || p > 1e-2 {
				t.Fatalf("%v at %g dB: theory BER %.3g is outside the tested range", row.m, snrDB, p)
			}
			for i := range bits {
				bits[i] = byte(rng.Uint64() & 1)
			}
			syms, err := MapBits(bits, row.m)
			if err != nil {
				t.Fatal(err)
			}
			re, im := make([]float64, len(syms)), make([]float64, len(syms))
			rng.FillNormPairs(re, im)
			sigma := math.Sqrt(0.5 / esN0) // per axis, at unit symbol energy
			for i := range syms {
				syms[i] += complex(sigma*re[i], sigma*im[i])
			}
			got, err := DemapHardAppend(nil, syms, row.m)
			if err != nil {
				t.Fatal(err)
			}
			errs := 0
			for i := range bits {
				if got[i] != bits[i] {
					errs++
				}
			}
			want := nBits * p
			band := 5 * math.Sqrt(nBits*p*(1-p))
			t.Logf("%v at %g dB: %d errors in %d bits (BER %.4g), theory %.0f ± %.0f",
				row.m, snrDB, errs, nBits, float64(errs)/nBits, want, band)
			if math.Abs(float64(errs)-want) > band {
				t.Errorf("%v at %g dB: %d bit errors, theory %.0f ± %.0f (BER %.4g vs %.4g)",
					row.m, snrDB, errs, want, band, float64(errs)/nBits, p)
			}
		}
	}
}
