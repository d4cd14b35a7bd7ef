package randutil

import (
	"math"
	"math/rand"
	"testing"
)

// TestUnderCurveMatchesExp pins the squeezed wedge test to the exact one,
// l < float32(math.Exp(-.5*x*x)), on every strip: for draws x at both ends
// of the |j| range a wedge test can see and at random j between, against
// heights l at the rounded curve itself, its float32 neighbours and random
// points of the strip. The heights at the curve are where a squeeze bound
// that crossed it would show.
func TestUnderCurveMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := int32(1); i < 128; i++ {
		lo, hi := zigguratKN[i], uint32(1<<31)
		js := []uint32{lo, lo + 1, hi - 1, hi, (lo + hi) / 2}
		for k := 0; k < 400; k++ {
			js = append(js, lo+uint32(rng.Int63n(int64(hi-lo)+1)))
		}
		for _, a := range js {
			for _, j := range []int32{int32(a), -int32(a)} {
				x := float64(j) * float64(zigguratWN[i])
				e := float32(math.Exp(-.5 * x * x))
				ls := []float32{e, math.Nextafter32(e, 0), math.Nextafter32(e, 2),
					math.Nextafter32(math.Nextafter32(e, 0), 0), math.Nextafter32(math.Nextafter32(e, 2), 2)}
				for k := 0; k < 4; k++ {
					ls = append(ls, zigguratFN[i]+float32(rng.Float64())*(zigguratFN[i-1]-zigguratFN[i]))
				}
				for _, l := range ls {
					if got, want := underCurve(i, x, l), l < e; got != want {
						t.Fatalf("strip %d, j %d, l %x: underCurve %v, exact test %v", i, j, math.Float32bits(l), got, want)
					}
				}
			}
		}
	}
}

// TestUnderCurveSkipsExp checks that the squeeze decides almost every wedge
// test of a long draw stream by itself, so the slow path rarely pays for
// math.Exp.
func TestUnderCurveSkipsExp(t *testing.T) {
	rng := NewRandDirect(9)
	var tests, undecided int
	for n := 0; n < 200000; n++ {
		j := int32(rng.Uint32())
		i := j & 0x7F
		a := uint32(j)
		if j < 0 {
			a = uint32(-j)
		}
		if i == 0 || a < zigguratKN[i] {
			continue
		}
		x := float64(j) * float64(zigguratWN[i])
		l := zigguratFN[i] + float32(rng.Float64())*(zigguratFN[i-1]-zigguratFN[i])
		tests++
		if _, ok := wedgeSqueeze(i, .5*x*x, l); !ok {
			undecided++
		}
	}
	if tests < 1000 || undecided*10 > tests {
		t.Fatalf("%d of %d wedge tests fell to math.Exp; the squeeze should decide at least 90%%", undecided, tests)
	}
	t.Logf("%d of %d wedge tests fell to math.Exp", undecided, tests)
}
