package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// normState is a generator's register, walkers and strip table.
type normState struct {
	reg       [NormRegLen]int64
	tap, feed int
	tab       NormTable
}

// normTestState builds a register of random words, walkers at a random
// position holding math/rand's lag (every fourth state with a walker a few
// steps above index 0, so the wrap comes early), and a strip table whose
// bounds reject about 2% of draws, as math/rand's do. Adversarial states
// add strips that reject every draw (kn 0), strips bounded at and above
// 2^31 (where a signed compare would err), non-finite widths, and draws
// with j = MinInt32, whose |j| is 2^31 only as an unsigned value.
func normTestState(rng *rand.Rand, adversarial bool) *normState {
	s := &normState{}
	for i := range s.reg {
		s.reg[i] = int64(rng.Uint64())
	}
	s.feed = rng.Intn(NormRegLen)
	switch rng.Intn(8) {
	case 0:
		s.feed = rng.Intn(8)
	case 1:
		s.feed = rng.Intn(8) + NormRegLen - normLag // the tap walker is the low one
	}
	s.tap = (s.feed + normLag) % NormRegLen
	for k := range s.tab {
		s.tab[k] = NormStrip{KN: 0x7d000000 + uint32(rng.Intn(0x1000000)), WN: float32(rng.ExpFloat64() * 1e-9)}
	}
	if adversarial {
		for i := 0; i < 6; i++ {
			k := rng.Intn(128)
			switch i % 6 {
			case 0:
				s.tab[k].KN = 0
			case 1:
				s.tab[k].KN = 1 << 31
			case 2:
				s.tab[k].KN = math.MaxUint32
			case 3:
				s.tab[k].WN = float32(math.Inf(1))
			case 4:
				s.tab[k].WN = float32(math.NaN())
			case 5:
				s.tab[k].WN = math.SmallestNonzeroFloat32
			}
		}
		// j = MinInt32 in a few of the next draws: x>>31 has low word
		// 0x80000000 when x = 1<<62.
		for i := 0; i < 3; i++ {
			d := rng.Intn(min(s.tap, s.feed, 24) + 1)
			if d == 0 {
				continue
			}
			s.reg[s.tap-d], s.reg[s.feed-d] = 1<<62, 0
		}
	}
	return s
}

// normStep advances the register by one raw step, wrapping the walkers:
// the caller's scalar draw stands in for whatever the slow path consumes.
func (s *normState) normStep() {
	s.tap = (s.tap + NormRegLen - 1) % NormRegLen
	s.feed = (s.feed + NormRegLen - 1) % NormRegLen
	s.reg[s.feed] += s.reg[s.tap]
}

// normFillPlane runs draw over n draws the way a generator does: after
// every stop it steps the register once, as its scalar draw would, and
// resumes. It returns the stops.
func normFillPlane(s *normState, n int, draw func(s *normState, from int) int) []int {
	var stops []int
	for i := 0; i < n; {
		d := draw(s, i)
		s.tap -= d
		s.feed -= d
		i += d
		if i < n {
			stops = append(stops, i)
			s.normStep()
			i++
		}
	}
	return stops
}

// normCheckKernels compares NormDraws and NormDrawPairs with their
// references on one state over n draws (n/2 pairs): every stop, the
// written draws and the final register must agree bit for bit.
func normCheckKernels(t *testing.T, s0 *normState, n int, mul, add float64) {
	t.Helper()
	sentinel := math.Float64frombits(0x7ff4dead0000beef)
	plane := func() []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = sentinel
		}
		return p
	}
	got, want := *s0, *s0
	dG, dW := plane(), plane()
	stG := normFillPlane(&got, n, func(s *normState, i int) int {
		return NormDraws(dG[i:], &s.reg, s.tap, s.feed, &s.tab, mul, add)
	})
	stW := normFillPlane(&want, n, func(s *normState, i int) int {
		return NormDrawsRef(dW[i:], &s.reg, s.tap, s.feed, &s.tab, mul, add)
	})
	normCheckRun(t, "NormDraws", &got, &want, stG, stW)
	bitsEqual(t, "NormDraws", dG, dW)

	p := n / 2
	got, want = *s0, *s0
	reG, imG, reW, imW := plane()[:p], plane()[:p], plane()[:p], plane()[:p]
	pairs := func(re, im []float64, kernel func(re, im []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable) int) func(*normState, int) int {
		return func(s *normState, i int) int {
			if i&1 != 0 {
				return 0 // the caller draws the pair's im before resuming
			}
			return kernel(re[i/2:], im[i/2:], &s.reg, s.tap, s.feed, &s.tab)
		}
	}
	stG = normFillPlane(&got, 2*p, pairs(reG, imG, NormDrawPairs))
	stW = normFillPlane(&want, 2*p, pairs(reW, imW, NormDrawPairsRef))
	normCheckRun(t, "NormDrawPairs", &got, &want, stG, stW)
	bitsEqual(t, "NormDrawPairs re", reG, reW)
	bitsEqual(t, "NormDrawPairs im", imG, imW)
}

func normCheckRun(t *testing.T, name string, got, want *normState, stG, stW []int) {
	t.Helper()
	if len(stG) != len(stW) {
		t.Fatalf("%s: stops %v, ref %v", name, stG, stW)
	}
	for i := range stG {
		if stG[i] != stW[i] {
			t.Fatalf("%s: stops %v, ref %v", name, stG, stW)
		}
	}
	if got.tap != want.tap || got.feed != want.feed || got.reg != want.reg {
		t.Fatalf("%s: register differs from ref (walkers %d/%d, ref %d/%d)", name, got.tap, got.feed, want.tap, want.feed)
	}
}

// TestNormDrawsStopAtRejectAndWrap pins the kernels' stopping points on a
// hand-made state: a rejected draw (strip bound 0) and a walker at index 0
// each end a call with the register untouched from there on.
func TestNormDrawsStopAtRejectAndWrap(t *testing.T) {
	fftRestoreDispatch(t)
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		s := &normState{tap: 300, feed: 27}
		for k := range s.tab {
			s.tab[k] = NormStrip{KN: math.MaxUint32, WN: 1}
		}
		s.tab[5].KN = 0
		// Draw 9 lands in strip 5: x>>31 = 5 when x = 5<<31.
		s.reg[s.tap-10], s.reg[s.feed-10] = 2<<31, 3<<31
		dst := make([]float64, 40)
		if d := NormDraws(dst, &s.reg, s.tap, s.feed, &s.tab, 1, 0); d != 9 {
			t.Fatalf("tier %s: stopped after %d draws, want 9 (the rejected draw)", DispatchName(), d)
		}
		if s.reg[s.feed-10] != 3<<31 {
			t.Fatalf("tier %s: rejected draw's step was committed", DispatchName())
		}
		s.tap, s.feed = s.tap-10, s.feed-10 // the caller's scalar draw
		if d := NormDraws(dst, &s.reg, s.tap, s.feed, &s.tab, 1, 0); d != s.feed {
			t.Fatalf("tier %s: stopped after %d draws, want %d (the feed walker's wrap)", DispatchName(), d, s.feed)
		}
	}
}

// TestNormDrawsMatchRefBothTiers runs NormDraws and NormDrawPairs against
// their references from random and adversarial states on both dispatch
// tiers, over fills long enough to pass several rejections and a wrap.
func TestNormDrawsMatchRefBothTiers(t *testing.T) {
	fftRestoreDispatch(t)
	rng := rand.New(rand.NewSource(22))
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for trial := 0; trial < 40; trial++ {
			mul, add := rng.NormFloat64(), rng.NormFloat64()
			normCheckKernels(t, normTestState(rng, trial%2 == 1), 1+rng.Intn(1500), mul, add)
		}
	}
}
