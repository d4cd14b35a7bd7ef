package randutil

import (
	"encoding/binary"
	"math"
	"testing"

	"wlansim/internal/kernels"
)

// FuzzNormFill runs FillNormMulAdd and FillNormPairs on both kernel tiers
// from a fuzzer-crafted register and asserts strict bit equality with the
// scalar reference, add + NormFloat64()*mul per draw on a copy of the
// generator, and the same register position afterwards. feed places the
// walkers (tap = feed+273 mod 607), so a fill can start just above a
// walker's wrap through index 0; words sets the register outputs of the
// first draws (x_i = words[i], the tap slot zeroed), which reach any strip
// and j. The corpus in testdata/fuzz/FuzzNormFill crafts j = MinInt32
// (x = 1<<62: |j| is 2^31 only as an unsigned value), the base strip's
// tail, strip 1 (kn 0, always the wedge), each walker's wrap through index
// 0 and non-finite mul and add.
func FuzzNormFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, feed, n uint16, mul, add float64, words []byte) {
		n %= 1500
		base := NewRandDirect(int64(feed) * 7919)
		s := &base.src
		s.feed = int(feed) % rngLen
		s.tap = (s.feed + 273) % rngLen
		for k := 0; k < min(len(words)/8, 64); k++ {
			s.vec[(s.feed-1-k+rngLen)%rngLen] = int64(binary.LittleEndian.Uint64(words[8*k:]))
			s.vec[(s.tap-1-k+rngLen)%rngLen] = 0
		}
		prev := kernels.DispatchName() != "purego"
		defer kernels.SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			kernels.SetDispatch(simd)
			fast, ref := *base, *base
			dst := make([]float64, n)
			fast.FillNormMulAdd(dst, mul, add)
			for i, got := range dst {
				want := add + ref.NormFloat64()*mul
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tier %s: FillNormMulAdd draw %d of %d: bits %x, want %x",
						kernels.DispatchName(), i, n, math.Float64bits(got), math.Float64bits(want))
				}
			}
			if g, w := fast.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("tier %s: register after FillNormMulAdd: next output %x, want %x", kernels.DispatchName(), g, w)
			}

			fast, ref = *base, *base
			re, im := make([]float64, n/2), make([]float64, n/2)
			fast.FillNormPairs(re, im)
			for i := range re {
				wr, wi := ref.NormFloat64(), ref.NormFloat64()
				if math.Float64bits(re[i]) != math.Float64bits(wr) || math.Float64bits(im[i]) != math.Float64bits(wi) {
					t.Fatalf("tier %s: FillNormPairs pair %d of %d: bits (%x, %x), want (%x, %x)", kernels.DispatchName(), i, n/2,
						math.Float64bits(re[i]), math.Float64bits(im[i]), math.Float64bits(wr), math.Float64bits(wi))
				}
			}
			if g, w := fast.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("tier %s: register after FillNormPairs: next output %x, want %x", kernels.DispatchName(), g, w)
			}
		}
	})
}
