//go:build amd64 && !purego

package kernels

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestCTSolveAsmMatchesGo drives ctSolveAsm directly against ctSolveGo on
// random coefficients, every stage combination, 0-5 sections, decimation
// phases and block lengths 0..n, strict Float64bits (see ctsolve_test.go).
func TestCTSolveAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(62))
	next := func() float64 { return 2*rng.Float64() - 1 }
	for trial := 0; trial < 400; trial++ {
		flags := rng.Intn(16)
		decim := 1 + rng.Intn(40)
		p := ctTestSolver(next, rng.Intn(6), flags&1 != 0, flags&2 != 0, flags&4 != 0, decim, rng.Intn(decim))
		var blocks []ctSolveBlock
		for b := 0; b < 3; b++ {
			blocks = append(blocks, ctDrive(rng, rng.Intn(200), flags&8 != 0, trial%2 == 1))
		}
		pw, bw := p.clone(), cloneBlocks(blocks)
		got := ctSolveRun(t, ctSolveAsm, p, blocks)
		want := ctSolveRun(t, ctSolveGo, pw, bw)
		ctSolveCompare(t, "asm", got, want, p, pw, blocks, bw)
	}
}

// TestCTSolverLayout pins the CTSolver and CTSection field offsets that
// ctSolveAsm addresses (the CT_* and SEC_* defines in simd_amd64.s).
func TestCTSolverLayout(t *testing.T) {
	var p CTSolver
	var s CTSection
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"G", unsafe.Offsetof(p.G), 0}, {"A3", unsafe.Offsetof(p.A3), 8},
		{"Clip", unsafe.Offsetof(p.Clip), 16}, {"NClip", unsafe.Offsetof(p.NClip), 24},
		{"NSig", unsafe.Offsetof(p.NSig), 32}, {"HK", unsafe.Offsetof(p.HK), 40},
		{"HH2", unsafe.Offsetof(p.HH2), 48}, {"HDen", unsafe.Offsetof(p.HDen), 56},
		{"HC", unsafe.Offsetof(p.HC), 64}, {"HD", unsafe.Offsetof(p.HD), 72},
		{"HX", unsafe.Offsetof(p.HX), 80}, {"HU", unsafe.Offsetof(p.HU), 88},
		{"IQMul", unsafe.Offsetof(p.IQMul), 96}, {"IQAdd", unsafe.Offsetof(p.IQAdd), 112},
		{"Gain", unsafe.Offsetof(p.Gain), 128}, {"Sec", unsafe.Offsetof(p.Sec), 144},
		{"FK", unsafe.Offsetof(p.FK), 168}, {"FH2", unsafe.Offsetof(p.FH2), 184},
		{"FDen", unsafe.Offsetof(p.FDen), 200}, {"FC", unsafe.Offsetof(p.FC), 216},
		{"FD", unsafe.Offsetof(p.FD), 232}, {"FX", unsafe.Offsetof(p.FX), 248},
		{"FU", unsafe.Offsetof(p.FU), 264}, {"OutGain", unsafe.Offsetof(p.OutGain), 280},
		{"Decim", unsafe.Offsetof(p.Decim), 296}, {"Phase", unsafe.Offsetof(p.Phase), 304},
		{"HPF", unsafe.Offsetof(p.HPF), 312}, {"LPF", unsafe.Offsetof(p.LPF), 313},
		{"FO", unsafe.Offsetof(p.FO), 314},
		{"sec.H2", unsafe.Offsetof(s.H2), 0}, {"sec.NA0", unsafe.Offsetof(s.NA0), 16},
		{"sec.K22", unsafe.Offsetof(s.K22), 32}, {"sec.M11", unsafe.Offsetof(s.M11), 48},
		{"sec.M12", unsafe.Offsetof(s.M12), 64}, {"sec.M21", unsafe.Offsetof(s.M21), 80},
		{"sec.M22", unsafe.Offsetof(s.M22), 96}, {"sec.C0", unsafe.Offsetof(s.C0), 112},
		{"sec.C1", unsafe.Offsetof(s.C1), 128}, {"sec.D", unsafe.Offsetof(s.D), 144},
		{"sec.X1", unsafe.Offsetof(s.X1), 160}, {"sec.X2", unsafe.Offsetof(s.X2), 176},
		{"sec.U", unsafe.Offsetof(s.U), 192}, {"sizeof section", unsafe.Sizeof(s), 208},
	} {
		if c.got != c.want {
			t.Errorf("%s at offset %d, simd_amd64.s assumes %d", c.name, c.got, c.want)
		}
	}
}
