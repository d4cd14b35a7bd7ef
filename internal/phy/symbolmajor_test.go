package phy

import (
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/dsp"
	"wlansim/internal/kernels"
)

// dispatchRestore reverts the kernel dispatch tier when the test ends.
func dispatchRestore(t *testing.T) {
	t.Helper()
	prevSIMD := kernels.DispatchName() != "purego"
	t.Cleanup(func() { kernels.SetDispatch(prevSIMD) })
}

func complexSlicesBitEqual(t *testing.T, ctx string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d: %v != %v", ctx, i, got[i], want[i])
		}
	}
}

// refModulate is the per-symbol reference modulator: one single-frame
// inverse transform, the FFTSize/sqrt(52) scale and the cyclic prefix.
func refModulate(plan *dsp.FFTPlan, spec []complex128) []complex128 {
	sym := make([]complex128, SymbolLen)
	td := sym[CPLen:]
	copy(td, spec)
	plan.Inverse(td)
	scale := complex(float64(FFTSize)/sqrt52, 0)
	for i := range td {
		td[i] *= scale
	}
	copy(sym[:CPLen], td[FFTSize-CPLen:])
	return sym
}

// refDemodulate is the per-symbol reference demodulator: cyclic prefix
// dropped, one single-frame forward transform, the sqrt(52)/FFTSize scale.
func refDemodulate(plan *dsp.FFTPlan, sym []complex128) []complex128 {
	spec := append([]complex128(nil), sym[CPLen:]...)
	plan.Forward(spec)
	scale := complex(sqrt52/float64(FFTSize), 0)
	for i := range spec {
		spec[i] *= scale
	}
	return spec
}

// TestSymbolMajorModDemodBitExact pins the batched mod/demod trains, and
// the single-symbol functions built on them, against a per-symbol reference
// on single-frame transforms. The train lengths straddle the four-lane
// grouping boundary, and both kernel dispatch tiers run.
func TestSymbolMajorModDemodBitExact(t *testing.T) {
	dispatchRestore(t)
	plan, err := dsp.NewFFTPlan(FFTSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for _, simd := range []bool{true, false} {
		kernels.SetDispatch(simd)
		for _, nSym := range []int{1, 3, 4, 5, 8, 9} {
			specs := make([][]complex128, nSym)
			var want []complex128
			for n := range specs {
				specs[n] = make([]complex128, FFTSize)
				for i := range specs[n] {
					specs[n][i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want = append(want, refModulate(plan, specs[n])...)
			}

			batch, _, err := ModulateSymbolsAppend(nil, specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			complexSlicesBitEqual(t, "modulate train", batch, want)
			var single []complex128
			for _, spec := range specs {
				if single, err = ModulateSymbolAppend(single, spec); err != nil {
					t.Fatal(err)
				}
			}
			complexSlicesBitEqual(t, "modulate single", single, want)

			syms := make([][]complex128, nSym)
			dst := make([][]complex128, nSym)
			for n := range syms {
				syms[n] = batch[n*SymbolLen : (n+1)*SymbolLen]
				dst[n] = make([]complex128, FFTSize)
			}
			if err := DemodulateSymbols(dst, syms); err != nil {
				t.Fatal(err)
			}
			for n := range syms {
				ref := refDemodulate(plan, syms[n])
				complexSlicesBitEqual(t, "demodulate train", dst[n], ref)
				got, err := DemodulateSymbol(syms[n])
				if err != nil {
					t.Fatal(err)
				}
				complexSlicesBitEqual(t, "demodulate single", got, ref)
			}
		}
	}
}
