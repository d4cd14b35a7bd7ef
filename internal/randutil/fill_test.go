package randutil

import (
	"math"
	"math/rand"
	"testing"
)

// TestFillNormMulAddMatchesMathRand pins FillNormMulAdd against its scalar
// definition on math/rand: dst[i] = add + NormFloat64()*mul, draws in index
// order, bit for bit. The forms are the two production callers': the LO
// phase increment (mul sigma, add the nominal step) and the LNA noise plane
// (mul 1, add 0). Each form's lengths run back to back on one stream, so
// fills also start mid-register, and the 200k-draw fill makes the ziggurat's
// rare paths (base-strip tail, wedge rejection) statistically certain.
func TestFillNormMulAddMatchesMathRand(t *testing.T) {
	forms := []struct {
		name     string
		mul, add float64
	}{
		{"LO", 1.7724538509055159e-3, 0.39269908169872414},
		{"LNA", 1, 0},
	}
	lengths := []int{0, 1, 3, 5, 4095, 200000}
	for _, seed := range []int64{0, 3, -77, 1 << 40} {
		for _, f := range forms {
			fast := NewRandDirect(seed)
			ref := rand.New(rand.NewSource(seed))
			for _, n := range lengths {
				dst := make([]float64, n)
				fast.FillNormMulAdd(dst, f.mul, f.add)
				for i, got := range dst {
					want := f.add + ref.NormFloat64()*f.mul
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d %s form, %d-draw fill, draw %d: bits %x, want %x",
							seed, f.name, n, i, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
			// The fills consumed exactly their draws: the streams are level.
			if g, w := fast.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d %s form: next register output %x after the fills, want %x", seed, f.name, g, w)
			}
		}
	}
}
