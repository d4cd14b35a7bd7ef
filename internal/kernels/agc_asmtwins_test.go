//go:build amd64 && !purego

package kernels

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestAGCLanesAsmMatchesGo drives agcQuadAsm and agcOctAsm directly
// against their Go twins from identical lanes and states: random start
// samples, resync counts just under the interval (so both return early at
// the same sample), gains on the bounds, every test law and adversarial
// samples. The returned index, the samples and every lane state must agree
// bit for bit.
func TestAGCLanesAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 400; trial++ {
		law := agcTestLaws[trial%len(agcTestLaws)]
		width := 4 << (trial % 2)
		n := rng.Intn(600)
		lanes := make([][]complex128, width)
		st := make([]AGCLane, width)
		for l := range lanes {
			lanes[l] = agcTestFrame(rng, n, trial%4 >= 2)
			g := []float64{law.MinGainDB, law.MaxGainDB, 0, -3.25}[rng.Intn(4)]
			st[l] = agcState(g, (0.01+2*rng.Float64())/law.InvTarget, AGCResyncInterval-1-rng.Intn(40))
		}
		i := 0
		if n > 0 {
			i = rng.Intn(n)
		}
		want, wst := cloneLanes(lanes), append([]AGCLane(nil), st...)
		for i < n {
			var gi, wi int
			if width == 8 {
				gi = agcOctAsm(lanes, i, n, (*[8]AGCLane)(st), &law)
				wi = agcOctGo(want, i, n, (*[8]AGCLane)(wst), &law)
			} else {
				gi = agcQuadAsm(lanes, i, n, (*[4]AGCLane)(st), &law)
				wi = agcQuadGo(want, i, n, (*[4]AGCLane)(wst), &law)
			}
			if gi != wi {
				t.Fatalf("trial %d: asm returned at %d, go at %d", trial, gi, wi)
			}
			agcEqual(t, "asm", lanes, want, st, wst)
			if gi <= i {
				t.Fatalf("trial %d: no progress from %d", trial, i)
			}
			for l := range st {
				agcResync(&st[l])
				agcResync(&wst[l])
			}
			i = gi
		}
	}
}

// TestAGCLayout pins the AGCLaw field offsets and the AGCLane row layout
// that agcQuadAsm addresses (the AGC_* defines in simd_amd64.s).
func TestAGCLayout(t *testing.T) {
	var law AGCLaw
	var s AGCLane
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Alpha", unsafe.Offsetof(law.Alpha), 0}, {"Attack", unsafe.Offsetof(law.Attack), 8},
		{"Release", unsafe.Offsetof(law.Release), 16}, {"InvTarget", unsafe.Offsetof(law.InvTarget), 24},
		{"UAttack", unsafe.Offsetof(law.UAttack), 32}, {"URelease", unsafe.Offsetof(law.URelease), 40},
		{"MinGainDB", unsafe.Offsetof(law.MinGainDB), 48}, {"MaxGainDB", unsafe.Offsetof(law.MaxGainDB), 56},
		{"lane.GainLin", unsafe.Offsetof(s.GainLin), 0}, {"lane.GainDB", unsafe.Offsetof(s.GainDB), 8},
		{"lane.Est", unsafe.Offsetof(s.Est), 16}, {"lane.Resync", unsafe.Offsetof(s.Resync), 24},
		{"sizeof lane", unsafe.Sizeof(s), 32}, {"sizeof resync", unsafe.Sizeof(s.Resync), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s at %d, simd_amd64.s assumes %d", c.name, c.got, c.want)
		}
	}
}
