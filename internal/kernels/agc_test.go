package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// agcTestLaw builds the law of an AGC with the given time constant (in
// samples), target power and gain bounds, as the receiver's AGC derives it.
func agcTestLaw(tc, targetDBm, minG, maxG float64) AGCLaw {
	law := AGCLaw{
		Alpha:     math.Min(4/tc, 0.5),
		Attack:    0.2,
		Release:   0.1 / tc,
		InvTarget: 1 / (1e-3 * math.Pow(10, targetDBm/10)),
		MinGainDB: minG,
		MaxGainDB: maxG,
	}
	law.UAttack = math.Pow(10, AGCAttackClampDB/(10*law.Attack))
	law.URelease = math.Pow(10, -AGCReleaseClampDB/(10*law.Release))
	return law
}

// agcExactLaw has a unit target and power-of-two clamp ratios, so crafted
// samples land the power ratio u exactly on a regime boundary.
var agcExactLaw = AGCLaw{Alpha: 0.25, Attack: 0.2, Release: 0.01, InvTarget: 1,
	UAttack: 4, URelease: 0.25, MinGainDB: -20, MaxGainDB: 20}

// agcTestLaws are the laws the tests and FuzzAGCLanes draw from.
var agcTestLaws = []AGCLaw{
	agcTestLaw(64, -10, -40, 40),
	agcTestLaw(16, -10, -40, 40),
	agcTestLaw(4, 0, -10, 10),
	agcTestLaw(1e5, -10, -40, 40), // uRelease below the smallest normal
	agcExactLaw,
}

// agcState returns a lane state at gain g (dB) with estimate est.
func agcState(g, est float64, resync int) AGCLane {
	return AGCLane{GainLin: math.Pow(10, g/20), GainDB: g, Est: est, Resync: resync}
}

// agcTestFrame returns n samples in bursts of random power between -100
// and +30 dBm around a -10 dBm target, salted with NaN/±Inf when
// adversarial.
func agcTestFrame(rng *rand.Rand, n int, adversarial bool) []complex128 {
	x := make([]complex128, n)
	amp := 0.0
	for i := range x {
		if i%97 == 0 {
			amp = math.Sqrt(1e-3 * math.Pow(10, (-100+130*rng.Float64())/10) / 2)
		}
		x[i] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
		if adversarial {
			switch rng.Intn(400) {
			case 0:
				x[i] = complex(math.NaN(), 0)
			case 1:
				x[i] = complex(math.Inf(1), 1)
			case 2:
				x[i] = complex(0, math.Inf(-1))
			}
		}
	}
	return x
}

func cloneLanes(src [][]complex128) [][]complex128 {
	dst := make([][]complex128, len(src))
	for l := range src {
		dst[l] = append([]complex128(nil), src[l]...)
	}
	return dst
}

// agcEqual fails unless the lanes and states agree bit for bit (NaN payload
// bits excepted, see bitsEqual).
func agcEqual(t *testing.T, what string, got, want [][]complex128, gst, wst []AGCLane) {
	t.Helper()
	for l := range want {
		for i := range want[l] {
			bitsEqual(t, fmt.Sprintf("%s lane %d sample %d", what, l, i),
				[]float64{real(got[l][i]), imag(got[l][i])}, []float64{real(want[l][i]), imag(want[l][i])})
		}
		g, w := gst[l], wst[l]
		bitsEqual(t, fmt.Sprintf("%s lane %d state", what, l),
			[]float64{g.GainLin, g.GainDB, g.Est}, []float64{w.GainLin, w.GainDB, w.Est})
		if g.Resync != w.Resync {
			t.Fatalf("%s lane %d: resync %d, want %d", what, l, g.Resync, w.Resync)
		}
	}
}

// agcRunBlocks runs AGCLanes over the lanes in consecutive blocks of split
// samples.
func agcRunBlocks(lanes [][]complex128, st []AGCLane, law *AGCLaw, split int) {
	n := len(lanes[0])
	view := make([][]complex128, len(lanes))
	for s := 0; s < n; s += split {
		e := min(s+split, n)
		for l := range lanes {
			view[l] = lanes[l][s:e]
		}
		AGCLanes(view, st, law)
	}
}

// TestAGCLanesMatchesGoBothTiers runs the dispatching AGCLanes on both
// tiers, in blocks of varied length, against one whole-frame call of the Go
// tier: 1-9 lanes (whole quads, padded quads, Go-tier remainders), every
// test law, frozen and free, resync counts near the interval, gains on the
// bounds and adversarial samples.
func TestAGCLanesMatchesGoBothTiers(t *testing.T) {
	prev := DispatchName() != "purego"
	defer SetDispatch(prev)
	rng := rand.New(rand.NewSource(71))
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for L := 1; L <= 9; L++ {
			for li, law := range agcTestLaws {
				for trial := 0; trial < 4; trial++ {
					law := law
					law.Freeze = trial == 3
					n := []int{0, 1, 700, 549}[trial] // 549: over two padded-group blocks
					lanes := make([][]complex128, L)
					st := make([]AGCLane, L)
					for l := range lanes {
						lanes[l] = agcTestFrame(rng, n, trial%2 == 1)
						g := []float64{law.MinGainDB, law.MaxGainDB, 0, 7.5}[rng.Intn(4)]
						st[l] = agcState(g, 1/law.InvTarget, AGCResyncInterval-1-rng.Intn(3))
					}
					want, wst := cloneLanes(lanes), append([]AGCLane(nil), st...)
					agcLanesGo(want, wst, &law)
					agcRunBlocks(lanes, st, &law, 1+rng.Intn(300))
					agcEqual(t, fmt.Sprintf("%s L=%d law %d trial %d", DispatchName(), L, li, trial), lanes, want, st, wst)
				}
			}
		}
	}
}

// agcFuzzSeed encodes one FuzzAGCLanes input: the lane count, law index and
// block split bytes, per-lane resync and gain selectors, per-lane
// estimates, then the samples as (re, im) float64 pairs.
func agcFuzzSeed(L, law, split byte, resync, gain []byte, est []float64, samples ...float64) []byte {
	b := append([]byte{L - 1, law, split}, resync...)
	b = append(b, gain...)
	for _, v := range append(est, samples...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAGCLanes decodes a lane group and its states from the payload and
// asserts that AGCLanes on either tier, in blocks, is bit-identical to one
// call of the Go tier (NaN payload bits excepted, see bitsEqual), and that
// no sample moves a lane's gain by more than AGCAttackClampDB (up to the
// logarithm series' error) — the bound that lets the law drop a large-step
// exact recompute. The crafted seeds cover resync counts of 254 and 255,
// gains pinned at either bound, e <= 0 (zero and negative estimates), ±Inf
// and NaN samples, u exactly on uAttack, uRelease, 0.5 and 2, and subnormal
// u.
func FuzzAGCLanes(f *testing.F) {
	nine := func(v byte) []byte { return []byte{v, v, v, v, v, v, v, v, v} }
	tgt := 1e-4 // the -10 dBm target of laws 0, 1 and 3
	f.Add(agcFuzzSeed(8, 0, 63, []byte{254, 255, 0, 17, 255, 254, 128, 3}, []byte{0, 1, 2, 3, 0, 1, 2, 3},
		[]float64{tgt, tgt, tgt, tgt, tgt, tgt, tgt, tgt},
		1e-3, 2e-3, 0.3, -0.1, 1e-6, 0, 0.02, 0.01, 1e-9, 1e-9, 0.5, 0.5, -3e-3, 1e-3, 0, 0))
	f.Add(agcFuzzSeed(3, 1, 1, []byte{255, 255, 255}, []byte{0, 1, 3},
		[]float64{tgt, tgt, tgt},
		math.Inf(1), 0, math.NaN(), 0, 1e-3, math.Inf(-1), 1e-3, 1e-3, 0, math.NaN()))
	f.Add(agcFuzzSeed(4, 4, 2, nine(254)[:4], []byte{3, 3, 3, 3},
		[]float64{4, 0.25, 0.5, 2},
		2, 0, 0.5, 0, 0.5, 0.5, 1, 1, 2, 0, 0.5, 0, 0.5, 0.5, 1, 1))
	f.Add(agcFuzzSeed(5, 2, 7, nine(255)[:5], []byte{0, 1, 0, 1, 2},
		[]float64{0, -1, 0, math.SmallestNonzeroFloat64, 1e-3},
		0, 0, 1e-9, 0, 0, 0, 1e-200, 0, 3, 4))
	// Subnormal estimates under law 3, whose release clamp never applies:
	// lnWide of a subnormal u.
	f.Add(agcFuzzSeed(2, 3, 5, []byte{0, 9}, []byte{2, 3}, []float64{1e-315, 3e-310},
		0, 0, 1e-160, 0, 0, 0, 0, 1e-158, 0, 0, 0, 0))
	f.Add(agcFuzzSeed(9, 3, 200, nine(254), nine(2),
		[]float64{tgt, tgt, tgt, tgt, tgt, tgt, tgt, tgt, tgt},
		1e-160, 0, 1e-170, 1e-170, 1e-3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		L := int(data[0])%9 + 1
		law := agcTestLaws[int(data[1])%len(agcTestLaws)]
		split := int(data[2]) + 1
		data = data[3:]
		if len(data) < 2*L {
			return
		}
		resync, gsel := data[:L], data[L:2*L]
		vals := fuzzFloats(data[2*L:], L+2*L*600)
		if len(vals) < L {
			return
		}
		st := make([]AGCLane, L)
		for l := range st {
			g := []float64{law.MinGainDB, law.MaxGainDB, 0.5 * (law.MinGainDB + law.MaxGainDB), 0}[gsel[l]%4]
			st[l] = agcState(g, vals[l], int(resync[l]))
		}
		n := (len(vals) - L) / (2 * L)
		lanes := make([][]complex128, L)
		for l := range lanes {
			lanes[l] = make([]complex128, n)
			for i := range lanes[l] {
				k := L + 2*(l*n+i)
				lanes[l][i] = complex(vals[k], vals[k+1])
			}
		}

		// The reference steps one sample per call and checks the bound.
		want, wst := cloneLanes(lanes), append([]AGCLane(nil), st...)
		view := make([][]complex128, L)
		for i := 0; i < n; i++ {
			before := append([]AGCLane(nil), wst...)
			for l := range view {
				view[l] = want[l][i : i+1]
			}
			agcLanesGo(view, wst, &law)
			for l := range wst {
				if d := math.Abs(wst[l].GainDB - before[l].GainDB); d > AGCAttackClampDB+1e-6 {
					t.Fatalf("lane %d sample %d: gain moved %g dB", l, i, d)
				}
			}
		}

		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		for _, simd := range []bool{true, false} {
			SetDispatch(simd)
			got, gst := cloneLanes(lanes), append([]AGCLane(nil), st...)
			agcRunBlocks(got, gst, &law, split)
			agcEqual(t, DispatchName(), got, want, gst, wst)
		}
	})
}
