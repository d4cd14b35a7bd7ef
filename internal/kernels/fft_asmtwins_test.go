//go:build amd64 && !purego

package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the FFT-engine assembly tier: each stub is driven
// directly against its pure-Go twin on random and adversarial inputs under
// the stub's preconditions (quad shapes, positive lengths). The exported
// kernels' ragged tails and half < 4 fallbacks are covered by the
// both-tiers suite in fft_equiv_test.go.

// twinStageTwiddles builds a twiddle plane pair of length half: unit-circle
// values plus adversarial bit patterns when requested.
func twinStageTwiddles(rng *rand.Rand, half int, adversarial bool) (wr, wi []float64) {
	wr = make([]float64, half)
	wi = make([]float64, half)
	for k := range wr {
		ang := -2 * math.Pi * float64(k) / float64(2*half)
		wi[k], wr[k] = math.Sincos(ang)
		if adversarial && rng.Intn(8) == 0 {
			wr[k] = math.Inf(1 - 2*rng.Intn(2))
			wi[k] = math.NaN()
		}
	}
	return wr, wi
}

// TestFFTStageAsmMatchesGo covers both vector bodies: whole quads per
// block (half a multiple of 4) and the shuffled eight-element iterations of
// half 1 and 2, whose frames are a multiple of 8 elements.
func TestFFTStageAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(41))
	for _, half := range []int{1, 2, 4, 8, 16, 32} {
		for _, blocks := range []int{1, 2, 3} {
			for trial := 0; trial < 6; trial++ {
				adv := trial%2 == 1
				n := 2 * half * blocks
				if half < 4 {
					n = 8 * blocks
				}
				wr, wi := twinStageTwiddles(rng, half, adv)
				re := twinRandPlane(rng, n, adv)
				im := twinRandPlane(rng, n, adv)
				re2 := append([]float64(nil), re...)
				im2 := append([]float64(nil), im...)
				fftStageAsm(re, im, wr, wi, half)
				fftStageGo(re2, im2, wr, wi, half)
				bitsEqual(t, "re", re, re2)
				bitsEqual(t, "im", im, im2)
			}
		}
	}
}

func TestFFTStageX4AsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(42))
	for _, half := range []int{1, 2, 4, 8, 16} {
		for _, blocks := range []int{1, 2, 3} {
			for trial := 0; trial < 6; trial++ {
				adv := trial%2 == 1
				n := 4 * 2 * half * blocks
				wr, wi := twinStageTwiddles(rng, half, adv)
				re := twinRandPlane(rng, n, adv)
				im := twinRandPlane(rng, n, adv)
				re2 := append([]float64(nil), re...)
				im2 := append([]float64(nil), im...)
				fftStageX4Asm(re, im, wr, wi, half)
				fftStageX4Go(re2, im2, wr, wi, half)
				bitsEqual(t, "re", re, re2)
				bitsEqual(t, "im", im, im2)
			}
		}
	}
}

func TestFFTPermuteAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{4, 8, 64, 256} {
		for trial := 0; trial < 8; trial++ {
			src := twinRandPlane(rng, n+3, trial%2 == 1)
			idx := make([]int64, n)
			for i := range idx {
				idx[i] = int64(rng.Intn(len(src)))
			}
			dst := make([]float64, n)
			dst2 := make([]float64, n)
			fftPermuteAsm(dst, src, idx)
			fftPermuteGo(dst2, src, idx)
			bitsEqual(t, "dst", dst, dst2)
		}
	}
}

func TestScaleCplxAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(44))
	scales := []float64{1.0 / 64, 64 / 7.211102550927978, 0, math.Copysign(0, -1),
		math.Inf(1), math.NaN(), -1e308, math.SmallestNonzeroFloat64}
	for _, n := range []int{4, 16, 64} {
		for trial := 0; trial < 8; trial++ {
			adv := trial%2 == 1
			s := scales[trial%len(scales)]
			re := twinRandPlane(rng, n, adv)
			im := twinRandPlane(rng, n, adv)
			re2 := append([]float64(nil), re...)
			im2 := append([]float64(nil), im...)
			scaleCplxAsm(re, im, s)
			scaleCplxGo(re2, im2, s)
			bitsEqual(t, "re", re, re2)
			bitsEqual(t, "im", im, im2)
		}
	}
}

func TestMulCplxAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{4, 16, 128} {
		for trial := 0; trial < 8; trial++ {
			adv := trial%2 == 1
			ar := twinRandPlane(rng, n, adv)
			ai := twinRandPlane(rng, n, adv)
			br := twinRandPlane(rng, n, adv)
			bi := twinRandPlane(rng, n, adv)
			ar2 := append([]float64(nil), ar...)
			ai2 := append([]float64(nil), ai...)
			mulCplxAsm(ar, ai, br, bi)
			mulCplxGo(ar2, ai2, br, bi)
			bitsEqual(t, "re", ar, ar2)
			bitsEqual(t, "im", ai, ai2)
		}
	}
}
