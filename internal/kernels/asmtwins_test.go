//go:build amd64 && !purego

package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// Differential suite for the assembly tier: every fooAsm stub is driven
// directly against its pure-Go twin fooGo on random and adversarial
// (NaN/±Inf/denormal) inputs and must agree bit for bit (NaN payload bits
// excepted, as everywhere in this package — see bitsEqual). The wlanlint
// asmtwin analyzer requires each stub to be referenced here, so assembly
// cannot land without this coverage. Stub preconditions (quad lengths,
// positive n) are honored by construction; the ragged-tail composition is
// covered by the exported-kernel suites running under both dispatch tiers.

// restoreDispatch reverts any SetDispatch flips when the test ends.
func restoreDispatch(t *testing.T) {
	t.Helper()
	prev := DispatchName() != "purego"
	t.Cleanup(func() { SetDispatch(prev) })
}

// requireAsmTier skips the test when the probe rejected the CPU (no AVX2):
// the stubs must not be called at all in that case.
func requireAsmTier(t *testing.T) {
	t.Helper()
	if !SIMDAvailable() {
		t.Skip("assembly tier not available on this CPU")
	}
}

// twinRandPlane fills a plane with Gaussian values plus occasional
// adversarial bit patterns when requested.
func twinRandPlane(rng *rand.Rand, n int, adversarial bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
		if adversarial {
			switch rng.Intn(24) {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1)
			case 2:
				out[i] = math.Inf(-1)
			case 3:
				out[i] = math.SmallestNonzeroFloat64
			case 4:
				out[i] = -1e308
			}
		}
	}
	return out
}

// twinRandCplx builds an interleaved complex frame from two fresh planes.
func twinRandCplx(rng *rand.Rand, n int, adversarial bool) []complex128 {
	re := twinRandPlane(rng, n, adversarial)
	im := twinRandPlane(rng, n, adversarial)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

// TestACSStepAsmMatchesGo drives single trellis steps with both step kernels
// from identical banks — the canonical 0/-Inf start and banks evolved several
// steps in — asserting decision-word and full-bank bit equality. Metrics stay
// in the clean-path domain (finite branch metrics, no NaN/+Inf in the bank),
// which is the only domain the dispatcher routes to these kernels.
func TestACSStepAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var bank [64]float64
		if trial%3 == 0 {
			acsInitBank(&bank) // includes the -Inf unreached states
		} else {
			for i := range bank {
				bank[i] = rng.NormFloat64() * 10
			}
		}
		// Evolve a few steps so banks include survivor-structured values.
		var scratch [64]float64
		cur, next := &bank, &scratch
		for s := 0; s < trial%4; s++ {
			acsStepGo(next, cur, rng.NormFloat64(), rng.NormFloat64())
			cur, next = next, cur
		}

		mA, mB := rng.NormFloat64(), rng.NormFloat64()
		var nextAsm, nextGo [64]float64
		dAsm := acsStepAsm(&nextAsm, cur, mA, mB)
		dGo := acsStepGo(&nextGo, cur, mA, mB)
		if dAsm != dGo {
			t.Fatalf("trial %d: decision word %#x != go %#x", trial, dAsm, dGo)
		}
		bitsEqual(t, "next bank", nextAsm[:], nextGo[:])
	}
}

// TestFIRRealAsmMatchesGo runs the vector FIR body against the Go twin over
// quad output counts, tap counts spanning the unroll shapes, and adversarial
// payloads.
func TestFIRRealAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 8, 32, 64} {
		for _, tapN := range []int{1, 2, 7, 13} {
			for trial := 0; trial < 8; trial++ {
				adv := trial%2 == 1
				taps := twinRandPlane(rng, tapN, adv)
				xr := twinRandPlane(rng, n+tapN-1, adv)
				xi := twinRandPlane(rng, n+tapN-1, adv)
				ar, ai := make([]float64, n), make([]float64, n)
				gr, gi := make([]float64, n), make([]float64, n)
				firRealAsm(ar, ai, xr, xi, taps)
				firRealGo(gr, gi, xr, xi, taps)
				bitsEqual(t, "re", ar, gr)
				bitsEqual(t, "im", ai, gi)
			}
		}
	}
}

// TestFIRCplxAsmMatchesGo is the complex-tap variant of the FIR twin test.
func TestFIRCplxAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{4, 16, 48} {
		for _, tapN := range []int{1, 3, 11} {
			for trial := 0; trial < 8; trial++ {
				adv := trial%2 == 1
				tr := twinRandPlane(rng, tapN, adv)
				ti := twinRandPlane(rng, tapN, adv)
				xr := twinRandPlane(rng, n+tapN-1, adv)
				xi := twinRandPlane(rng, n+tapN-1, adv)
				ar, ai := make([]float64, n), make([]float64, n)
				gr, gi := make([]float64, n), make([]float64, n)
				firCplxAsm(ar, ai, xr, xi, tr, ti)
				firCplxGo(gr, gi, xr, xi, tr, ti)
				bitsEqual(t, "re", ar, gr)
				bitsEqual(t, "im", ai, gi)
			}
		}
	}
}

// TestMixApplyAsmMatchesGo runs the in-place mixer pass through both tiers
// from identical copies of the same frame.
func TestMixApplyAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{4, 8, 64, 256} {
		for trial := 0; trial < 10; trial++ {
			adv := trial%2 == 1
			xr := twinRandPlane(rng, n, adv)
			xi := twinRandPlane(rng, n, adv)
			ar := append([]float64(nil), xr...)
			ai := append([]float64(nil), xi...)
			mur, mui := rng.NormFloat64(), rng.NormFloat64()
			nur, nui := rng.NormFloat64(), rng.NormFloat64()
			g, dcr, dci := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			mixApplyAsm(ar, ai, mur, mui, nur, nui, g, dcr, dci)
			mixApplyGo(xr, xi, mur, mui, nur, nui, g, dcr, dci)
			bitsEqual(t, "re", ar, xr)
			bitsEqual(t, "im", ai, xi)
		}
	}
}

// TestMixApplyLOAsmMatchesGo adds the LO rotation planes to the mixer twin
// test.
func TestMixApplyLOAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{4, 8, 64, 256} {
		for trial := 0; trial < 10; trial++ {
			adv := trial%2 == 1
			xr := twinRandPlane(rng, n, adv)
			xi := twinRandPlane(rng, n, adv)
			lor := twinRandPlane(rng, n, adv)
			loi := twinRandPlane(rng, n, adv)
			ar := append([]float64(nil), xr...)
			ai := append([]float64(nil), xi...)
			mur, mui := rng.NormFloat64(), rng.NormFloat64()
			nur, nui := rng.NormFloat64(), rng.NormFloat64()
			g, dcr, dci := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			mixApplyLOAsm(ar, ai, lor, loi, mur, mui, nur, nui, g, dcr, dci)
			mixApplyLOGo(xr, xi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
			bitsEqual(t, "re", ar, xr)
			bitsEqual(t, "im", ai, xi)
		}
	}
}

// TestBiquadQuadAsmMatchesGo advances four IIR lanes through both tiers from
// identical planes, per-lane coefficients and delay states, asserting
// outputs and final states agree bit for bit.
func TestBiquadQuadAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, 7, 64} {
		for trial := 0; trial < 10; trial++ {
			adv := trial%2 == 1
			re, im := makePlanes(4, n), makePlanes(4, n)
			for l := range re {
				re[l] = twinRandPlane(rng, n, adv)
				im[l] = twinRandPlane(rng, n, adv)
			}
			reA, imA := clonePlanes(re), clonePlanes(im)
			b0, b1, b2, a1, a2 := biquadCoefs(rng, 4, trial%3 == 0)
			st := [][]float64{twinRandPlane(rng, 4, false), twinRandPlane(rng, 4, false),
				twinRandPlane(rng, 4, false), twinRandPlane(rng, 4, false)}
			stA := clonePlanes(st)

			biquadQuadAsm(reA, imA, b0, b1, b2, a1, a2, stA[0], stA[1], stA[2], stA[3])
			biquadQuadGo(re, im, b0, b1, b2, a1, a2, st[0], st[1], st[2], st[3])
			for l := range re {
				bitsEqualLane(t, "re", l, reA[l], re[l])
				bitsEqualLane(t, "im", l, imA[l], im[l])
			}
			for k := range st {
				bitsEqualLane(t, "state", k, stA[k], st[k])
			}
		}
	}
}

// TestBiquadBatchPerLaneAsmMatchesGo runs BiquadBatch on the assembly tier
// against the pure-Go tier over 1-9 lanes (whole quads, pair and single
// remainders) with a design of its own per lane, adversarial payloads and
// streamed blocks, asserting outputs and delay states agree bit for bit.
func TestBiquadBatchPerLaneAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	restoreDispatch(t)
	rng := rand.New(rand.NewSource(20))
	for B := 1; B <= 9; B++ {
		for trial := 0; trial < 8; trial++ {
			adv := trial%2 == 1
			b0, b1, b2, a1, a2 := biquadCoefs(rng, B, false)
			var st [2][4][]float64
			for k := range st[0] {
				st[0][k] = twinRandPlane(rng, B, false)
				st[1][k] = append([]float64(nil), st[0][k]...)
			}
			for block := 0; block < 3; block++ {
				n := rng.Intn(70)
				re, im := makePlanes(B, n), makePlanes(B, n)
				for l := range re {
					re[l] = twinRandPlane(rng, n, adv)
					im[l] = twinRandPlane(rng, n, adv)
				}
				out := [2][2][][]float64{{clonePlanes(re), clonePlanes(im)}, {re, im}}
				for tier, simd := range []bool{true, false} {
					SetDispatch(simd)
					s := st[tier]
					BiquadBatch(out[tier][0], out[tier][1], b0, b1, b2, a1, a2, s[0], s[1], s[2], s[3])
				}
				for l := 0; l < B; l++ {
					bitsEqualLane(t, "re", l, out[0][0][l], out[1][0][l])
					bitsEqualLane(t, "im", l, out[0][1][l], out[1][1][l])
				}
				for k := range st[0] {
					bitsEqualLane(t, "state", k, st[0][k], st[1][k])
				}
			}
		}
	}
}

// TestCorrPairAsmMatchesGo runs both correlators over shared frames,
// including the zero-tap degenerate shape and adversarial payloads.
func TestCorrPairAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(17))
	for _, tapN := range []int{0, 1, 5, 33, 64} {
		for trial := 0; trial < 10; trial++ {
			adv := trial%2 == 1
			x1 := twinRandCplx(rng, tapN, adv)
			x2 := twinRandCplx(rng, tapN, adv)
			ref := twinRandCplx(rng, tapN, adv)
			a1, a2, a3, a4 := corrPairAsm(x1, x2, ref)
			g1, g2, g3, g4 := corrPairGo(x1, x2, ref)
			bitsEqual(t, "corr", []float64{a1, a2, a3, a4}, []float64{g1, g2, g3, g4})
		}
	}
}

// TestPlaneAsmMatchesGo covers the elementwise and transpose kernels:
// addPlaneAsm/scalePlaneAsm against their twins, and the interleave /
// deinterleave pair, which is pure data movement and must preserve even NaN
// payload bits exactly.
func TestPlaneAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{4, 8, 64, 252} {
		for trial := 0; trial < 10; trial++ {
			adv := trial%2 == 1

			dst := twinRandPlane(rng, n, adv)
			src := twinRandPlane(rng, n, adv)
			dstA := append([]float64(nil), dst...)
			addPlaneAsm(dstA, src)
			addPlaneGo(dst, src)
			bitsEqual(t, "add", dstA, dst)

			s := rng.NormFloat64()
			dst = twinRandPlane(rng, n, adv)
			dstA = append([]float64(nil), dst...)
			scalePlaneAsm(dstA, s)
			scalePlaneGo(dst, s)
			bitsEqual(t, "scale", dstA, dst)

			// Transposes: strict bit equality, NaN payloads included.
			re := twinRandPlane(rng, n, adv)
			im := twinRandPlane(rng, n, adv)
			xA := make([]complex128, n)
			xG := make([]complex128, n)
			interleaveAsm(xA, re, im)
			interleaveGo(xG, re, im)
			for i := range xA {
				if math.Float64bits(real(xA[i])) != math.Float64bits(real(xG[i])) ||
					math.Float64bits(imag(xA[i])) != math.Float64bits(imag(xG[i])) {
					t.Fatalf("interleave sample %d: %v != go %v", i, xA[i], xG[i])
				}
			}
			reA := make([]float64, n)
			imA := make([]float64, n)
			reG := make([]float64, n)
			imG := make([]float64, n)
			deinterleaveAsm(reA, imA, xG)
			deinterleaveGo(reG, imG, xG)
			for i := range reA {
				if math.Float64bits(reA[i]) != math.Float64bits(reG[i]) ||
					math.Float64bits(imA[i]) != math.Float64bits(imG[i]) {
					t.Fatalf("deinterleave sample %d: (%x,%x) != go (%x,%x)", i,
						math.Float64bits(reA[i]), math.Float64bits(imA[i]),
						math.Float64bits(reG[i]), math.Float64bits(imG[i]))
				}
			}
		}
	}
}

// sincosTwinPlane draws phases the way an oscillator bank produces them
// (uniform over ±2e5 rad), small arguments, and π/4 octant edges nudged by
// a few ulps; adversarial planes add NaN, ±Inf, ±0, subnormals and
// arguments on both sides of the 2^29 reduction threshold.
func sincosTwinPlane(rng *rand.Rand, n int, adversarial bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = (2*rng.Float64() - 1) * 2e5
		case 1:
			out[i] = rng.NormFloat64()
		default:
			edge := float64(rng.Intn(4096)-2048) * (math.Pi / 4)
			out[i] = math.Float64frombits(math.Float64bits(edge) + uint64(rng.Intn(5)) - 2)
		}
		if adversarial {
			switch rng.Intn(16) {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				out[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
			case 3:
				out[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
			case 4:
				out[i] = math.Float64frombits(math.Float64bits(sincosLimit) + uint64(rng.Intn(3)) - 1)
			case 5:
				out[i] = -1e300
			}
		}
	}
	return out
}

// TestSincosAsmMatchesGo drives sincosAsm and sincosGo over the same
// planes: each call must stop at the same quad (the first with a lane
// outside the branch-free domain) and write bit-identical sines and
// cosines up to it. The test then steps over the stopping quad, as
// Sincos does, so the quads after an out-of-domain lane are compared too.
func TestSincosAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{4, 8, 64, 252} {
		for trial := 0; trial < 20; trial++ {
			x := sincosTwinPlane(rng, n, trial%2 == 1)
			sA, cA := make([]float64, n), make([]float64, n)
			sG, cG := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i += 4 {
				dA := sincosAsm(sA[i:], cA[i:], x[i:])
				dG := sincosGo(sG[i:], cG[i:], x[i:])
				if dA != dG {
					t.Fatalf("n=%d trial %d from %d: asm did %d elements, go %d", n, trial, i, dA, dG)
				}
				i += dA
			}
			bitsEqual(t, "sin", sA, sG)
			bitsEqual(t, "cos", cA, cG)
		}
	}
}

// TestNormQuadsAsmMatchesGo drives normQuadsAsm and normQuadsGo from
// copies of one register, contiguous and in pairs: each call must stop at
// the same draw (a rejected one, or the quad limit), leave the same
// register and write the same draws. After a stop the test steps the
// register once, as a generator's scalar draw would, and resumes, so the
// quads after a rejection are compared too.
func TestNormQuadsAsmMatchesGo(t *testing.T) {
	requireAsmTier(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		s0 := normTestState(rng, trial%2 == 1)
		n := 4 + rng.Intn(400)
		k := twinRandPlane(rng, 2, trial%4 == 3)
		for _, pairs := range []bool{false, true} {
			body := func(lo, hi []float64, quads func(lo, hi []float64, reg *[NormRegLen]int64, tap, feed int, tab *NormTable, mul, add float64, pairs bool) int) func(*normState, int) int {
				return func(s *normState, i int) int {
					if !pairs {
						return quads(lo[i:], nil, &s.reg, s.tap, s.feed, &s.tab, k[0], k[1], false)
					}
					if i&1 != 0 {
						return 0
					}
					return quads(lo[i/2:], hi[i/2:], &s.reg, s.tap, s.feed, &s.tab, k[0], k[1], true)
				}
			}
			a, g := *s0, *s0
			loA, hiA := make([]float64, n), make([]float64, n/2)
			loG, hiG := make([]float64, n), make([]float64, n/2)
			m := n
			if pairs {
				loA, loG, m = loA[:n/2], loG[:n/2], n&^1
			}
			stA := normFillPlane(&a, m, body(loA, hiA, normQuadsAsm))
			stG := normFillPlane(&g, m, body(loG, hiG, normQuadsGo))
			normCheckRun(t, "normQuads", &a, &g, stA, stG)
			bitsEqual(t, "normQuads lo", loA, loG)
			bitsEqual(t, "normQuads hi", hiA, hiG)
		}
	}
}

// TestSetDispatchToggles pins the dispatch API: forcing the pure-Go tier
// always succeeds, requesting SIMD is granted exactly when the probe
// accepted the CPU, and the reported name and lane width follow.
func TestSetDispatchToggles(t *testing.T) {
	restoreDispatch(t)
	if name := SetDispatch(false); name != "purego" {
		t.Fatalf("SetDispatch(false) = %q, want purego", name)
	}
	if w := SIMDWidth(); w != 1 {
		t.Fatalf("SIMDWidth on purego tier = %d, want 1", w)
	}
	name := SetDispatch(true)
	if SIMDAvailable() {
		if name != "avx2" {
			t.Fatalf("SetDispatch(true) = %q, want avx2", name)
		}
		if w := SIMDWidth(); w != 4 {
			t.Fatalf("SIMDWidth on avx2 tier = %d, want 4", w)
		}
	} else if name != "purego" {
		t.Fatalf("SetDispatch(true) without SIMD = %q, want purego", name)
	}
}

// TestExportedKernelsMatchRefBothTiers sweeps the exported dispatching
// kernels against their frozen references under both dispatch settings,
// covering the SIMD quad bodies plus the shared scalar tails on ragged
// lengths that the direct stub tests cannot reach.
func TestExportedKernelsMatchRefBothTiers(t *testing.T) {
	restoreDispatch(t)
	rng := rand.New(rand.NewSource(19))
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for _, n := range []int{1, 3, 4, 5, 17, 63} {
			for trial := 0; trial < 6; trial++ {
				adv := trial%2 == 1
				tapN := 1 + rng.Intn(12)

				taps := twinRandPlane(rng, tapN, adv)
				xr := twinRandPlane(rng, n+tapN-1, adv)
				xi := twinRandPlane(rng, n+tapN-1, adv)
				gr, gi := make([]float64, n), make([]float64, n)
				wr, wi := make([]float64, n), make([]float64, n)
				FIRReal(gr, gi, xr, xi, taps)
				FIRRealRef(wr, wi, xr, xi, taps)
				bitsEqual(t, "firreal re", gr, wr)
				bitsEqual(t, "firreal im", gi, wi)

				ar := twinRandPlane(rng, n, adv)
				ai := twinRandPlane(rng, n, adv)
				br := append([]float64(nil), ar...)
				bi := append([]float64(nil), ai...)
				lor := twinRandPlane(rng, n, adv)
				loi := twinRandPlane(rng, n, adv)
				mur, mui := rng.NormFloat64(), rng.NormFloat64()
				nur, nui := rng.NormFloat64(), rng.NormFloat64()
				g, dcr, dci := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
				MixApplyLO(ar, ai, lor, loi, mur, mui, nur, nui, g, dcr, dci)
				MixApplyLORef(br, bi, lor, loi, mur, mui, nur, nui, g, dcr, dci)
				bitsEqual(t, "mixlo re", ar, br)
				bitsEqual(t, "mixlo im", ai, bi)

				x1 := twinRandCplx(rng, n, adv)
				x2 := twinRandCplx(rng, n, adv)
				ref := twinRandCplx(rng, n, adv)
				s1, s2 := CorrPair(x1, x2, ref)
				w1, w2 := CorrPairRef(x1, x2, ref)
				bitsEqual(t, "corr", []float64{real(s1), imag(s1), real(s2), imag(s2)},
					[]float64{real(w1), imag(w1), real(w2), imag(w2)})

				dst := twinRandPlane(rng, n, adv)
				src := twinRandPlane(rng, n, adv)
				dstW := append([]float64(nil), dst...)
				AddPlane(dst, src)
				AddPlaneRef(dstW, src)
				bitsEqual(t, "addplane", dst, dstW)

				s := rng.NormFloat64()
				dst = twinRandPlane(rng, n, adv)
				dstW = append([]float64(nil), dst...)
				ScalePlane(dst, s)
				ScalePlaneRef(dstW, s)
				bitsEqual(t, "scaleplane", dst, dstW)

				ph := sincosTwinPlane(rng, n, adv)
				sG, cG := make([]float64, n), make([]float64, n)
				sW, cW := make([]float64, n), make([]float64, n)
				Sincos(sG, cG, ph)
				SincosRef(sW, cW, ph)
				bitsEqual(t, "sincos sin", sG, sW)
				bitsEqual(t, "sincos cos", cG, cW)

				k := twinRandPlane(rng, 2, adv)
				normCheckKernels(t, normTestState(rng, adv), 40*n+n%3, k[0], k[1])

				x := twinRandCplx(rng, n, adv)
				reG := make([]float64, n)
				imG := make([]float64, n)
				reW := make([]float64, n)
				imW := make([]float64, n)
				Deinterleave(reG, imG, x)
				DeinterleaveRef(reW, imW, x)
				bitsEqual(t, "deinterleave re", reG, reW)
				bitsEqual(t, "deinterleave im", imG, imW)
				xG := make([]complex128, n)
				xW := make([]complex128, n)
				Interleave(xG, reG, imG)
				InterleaveRef(xW, reW, imW)
				for i := range xG {
					if math.Float64bits(real(xG[i])) != math.Float64bits(real(xW[i])) ||
						math.Float64bits(imag(xG[i])) != math.Float64bits(imag(xW[i])) {
						t.Fatalf("interleave sample %d: %v != ref %v", i, xG[i], xW[i])
					}
				}
			}
		}
	}
}
