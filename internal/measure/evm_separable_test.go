package measure

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/phy"
)

// evmExhaustive is the frozen pre-separable EVM: an exhaustive hard demap to
// the nearest constellation point, a remap of the decided bits, and the
// squared distance to the remapped point. It is kept verbatim as the
// differential oracle for EVM's per-axis minimum.
func evmExhaustive(carriers [][]complex128, m phy.Modulation) (EVMResult, error) {
	var res EVMResult
	var acc float64
	var hard []byte
	var ideal []complex128
	var err error
	for _, sym := range carriers {
		hard, err = phy.DemapHardAppend(hard[:0], sym, m)
		if err != nil {
			return res, err
		}
		ideal, err = phy.MapBitsInto(ideal, hard, m)
		if err != nil {
			return res, err
		}
		for i, y := range sym {
			d := y - ideal[i]
			e2 := real(d)*real(d) + imag(d)*imag(d)
			acc += e2
			if e := math.Sqrt(e2); e > res.Peak {
				res.Peak = e
			}
			res.Symbols++
		}
	}
	if res.Symbols == 0 {
		return res, fmt.Errorf("measure: no symbols for EVM")
	}
	res.RMS = math.Sqrt(acc / float64(res.Symbols))
	return res, nil
}

var evmModulations = []phy.Modulation{phy.BPSK, phy.QPSK, phy.QAM16, phy.QAM64}

// evmAdversarialCarriers returns carrier sets for m: noisy points, exact
// constellation points, points on every decision boundary (the rounded
// midpoint of adjacent levels and its float neighbors, where the
// exhaustive scan's strict-< tie-breaking decides), and special values.
func evmAdversarialCarriers(rng *rand.Rand, m phy.Modulation) [][]complex128 {
	levI, levQ, err := phy.AxisLevels(m)
	if err != nil {
		panic(err)
	}
	inf, nan := math.Inf(1), math.NaN()
	var exact, boundary []complex128
	for _, q := range levQ {
		for _, i := range levI {
			exact = append(exact, complex(i, q))
		}
	}
	cuts := func(lev []float64) []float64 {
		var out []float64
		for a := 0; a+1 < len(lev); a++ {
			mid := (lev[a] + lev[a+1]) / 2
			out = append(out, mid, math.Nextafter(mid, inf), math.Nextafter(mid, -inf))
		}
		return out
	}
	for _, x := range cuts(levI) {
		for _, q := range levQ {
			boundary = append(boundary, complex(x, q))
		}
		for _, y := range cuts(levQ) {
			boundary = append(boundary, complex(x, y))
		}
	}
	for _, y := range cuts(levQ) {
		boundary = append(boundary, complex(levI[0], y))
	}
	noisy := make([]complex128, 96)
	for k := range noisy {
		p := exact[rng.Intn(len(exact))]
		noisy[k] = p + complex(rng.NormFloat64(), rng.NormFloat64())*complex(0.3, 0)
	}
	return [][]complex128{
		noisy,
		exact,
		boundary,
		{0, complex(-0.0, 0.0), complex(1e-300, -1e-300), complex(1e154, -1e154)},
		{complex(inf, 0), complex(-inf, 2), complex(0.5, inf), complex(-inf, -inf)},
		{complex(nan, 0), complex(0.25, nan), complex(nan, nan), complex(nan, inf)},
	}
}

// sameEVMFloat compares bit for bit, exempting only the NaN payload.
func sameEVMFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestEVMSeparableMatchesExhaustive pins EVM bit for bit against the frozen
// exhaustive oracle for all four modulations, on every carrier alone (so a
// NaN carrier cannot mask its neighbors) and on each whole set.
func TestEVMSeparableMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range evmModulations {
		for seti, set := range evmAdversarialCarriers(rng, m) {
			check := func(carriers [][]complex128, what string) {
				got, gerr := EVM(carriers, m)
				want, werr := evmExhaustive(carriers, m)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%v set %d %s: error %v, oracle %v", m, seti, what, gerr, werr)
				}
				if got.Symbols != want.Symbols || !sameEVMFloat(got.RMS, want.RMS) || !sameEVMFloat(got.Peak, want.Peak) {
					t.Errorf("%v set %d %s: EVM {RMS %v (%#x) Peak %v (%#x) %d} != oracle {RMS %v (%#x) Peak %v (%#x) %d}",
						m, seti, what, got.RMS, math.Float64bits(got.RMS), got.Peak, math.Float64bits(got.Peak), got.Symbols,
						want.RMS, math.Float64bits(want.RMS), want.Peak, math.Float64bits(want.Peak), want.Symbols)
				}
			}
			for k, y := range set {
				check([][]complex128{{y}}, fmt.Sprintf("carrier %d (%v)", k, y))
			}
			// Split into OFDM-symbol-sized rows so the multi-symbol walk runs.
			var rows [][]complex128
			for k := 0; k < len(set); k += 48 {
				rows = append(rows, set[k:min(k+48, len(set))])
			}
			check(rows, "whole set")
		}
	}
}

// TestEVMRejectsUnknownModulation keeps the modulation check of the hard
// demap the separable EVM no longer calls.
func TestEVMRejectsUnknownModulation(t *testing.T) {
	if _, err := EVM([][]complex128{{1}}, phy.Modulation(99)); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func evmBenchCarriers(m phy.Modulation) [][]complex128 {
	rng := rand.New(rand.NewSource(5))
	levI, levQ, err := phy.AxisLevels(m)
	if err != nil {
		panic(err)
	}
	carriers := make([][]complex128, 20) // a 20-symbol DATA field
	for s := range carriers {
		carriers[s] = make([]complex128, 48)
		for k := range carriers[s] {
			p := complex(levI[rng.Intn(len(levI))], levQ[rng.Intn(len(levQ))])
			carriers[s][k] = p + complex(rng.NormFloat64(), rng.NormFloat64())*complex(0.1, 0)
		}
	}
	return carriers
}

// TestEVMAllocFree gates the per-packet accounting path: EVM allocates
// nothing.
func TestEVMAllocFree(t *testing.T) {
	for _, m := range evmModulations {
		carriers := evmBenchCarriers(m)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := EVM(carriers, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: EVM allocates %.1f times per call, want 0", m, allocs)
		}
	}
}

var evmSink EVMResult

// BenchmarkEVM times EVM over a 20-symbol 16-QAM DATA field; compare
// BenchmarkEVMExhaustive, the frozen hard-demap oracle on the same input.
func BenchmarkEVM(b *testing.B) { benchmarkEVM(b, EVM) }

// BenchmarkEVMExhaustive is the oracle control for BenchmarkEVM.
func BenchmarkEVMExhaustive(b *testing.B) { benchmarkEVM(b, evmExhaustive) }

func benchmarkEVM(b *testing.B, evm func([][]complex128, phy.Modulation) (EVMResult, error)) {
	carriers := evmBenchCarriers(phy.QAM16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := evm(carriers, phy.QAM16)
		if err != nil {
			b.Fatal(err)
		}
		evmSink = res
	}
}
