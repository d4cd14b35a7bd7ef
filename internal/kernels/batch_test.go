package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The batch differential suite pins every batch kernel batch≡sequential at
// the bit level: lane b of the batch call must equal the scalar kernel run
// on lane b alone, across widths B ∈ {1..8, 16} (a ragged final batch is a
// smaller B, so the sweep over widths covers tails) and across adversarial
// NaN/±Inf inputs, reusing the scalar harness's generators.

var batchWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 16}

// fillPlanes fills B lane planes with Gaussian values, optionally salted
// with NaN/±Inf like acsRandSoft.
func fillPlanes(rng *rand.Rand, lanes [][]float64, adversarial bool) {
	for _, l := range lanes {
		acsRandSoft(rng, l, adversarial)
	}
}

func makePlanes(b, n int) [][]float64 {
	p := make([][]float64, b)
	for i := range p {
		p[i] = make([]float64, n)
	}
	return p
}

func clonePlanes(src [][]float64) [][]float64 {
	dst := make([][]float64, len(src))
	for i := range src {
		dst[i] = append([]float64(nil), src[i]...)
	}
	return dst
}

// bitsEqualLane is bitsEqual with the lane index in the failure message; it
// inherits the same NaN-payload equivalence (a NaN must be NaN in both
// kernels, but its payload bits are unspecified — see bitsEqual).
func bitsEqualLane(t *testing.T, name string, lane int, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s lane %d sample %d: %x != sequential %x", name, lane, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestACSRunBatchMatchesSequential runs the lock-step batched trellis and B
// independent per-step reference runs over the same per-lane streams,
// asserting bit equality of every decision word and final metric, with the
// final-bank parity rule checked against the reference's returned pointer.
func TestACSRunBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, B := range batchWidths {
		for trial := 0; trial < 40; trial++ {
			steps := 1 + rng.Intn(96)
			adversarial := trial%2 == 1

			soft := makePlanes(B, 2*steps)
			fillPlanes(rng, soft, adversarial)

			decBatch := make([][]uint64, B)
			decSeq := make([][]uint64, B)
			metric := make([]*[64]float64, B)
			scratch := make([]*[64]float64, B)
			clean := make([]bool, B)
			finalSeq := make([]*[64]float64, B)
			for b := 0; b < B; b++ {
				decBatch[b] = make([]uint64, steps)
				decSeq[b] = make([]uint64, steps)
				metric[b] = new([64]float64)
				scratch[b] = new([64]float64)
				acsInitBank(metric[b])

				var m, s [64]float64
				acsInitBank(&m)
				finalSeq[b] = &[64]float64{}
				*finalSeq[b] = *acsRunRef(decSeq[b], soft[b], &m, &s)
			}

			ACSRunBatch(decBatch, soft, metric, scratch, clean)

			for b := 0; b < B; b++ {
				for i := range decBatch[b] {
					if decBatch[b][i] != decSeq[b][i] {
						t.Fatalf("B=%d trial %d lane %d step %d: decision %#x != sequential %#x",
							B, trial, b, i, decBatch[b][i], decSeq[b][i])
					}
				}
				finalBatch := metric[b]
				if steps%2 == 1 {
					finalBatch = scratch[b]
				}
				bitsEqualLane(t, "metric", b, finalBatch[:], finalSeq[b][:])
			}
		}
	}
}

// biquadCoefs returns B lanes' section coefficients: plausible magnitudes
// (stability is irrelevant to bit equality), one design shared by every
// lane when shared is set, else one per lane.
func biquadCoefs(rng *rand.Rand, B int, shared bool) (b0, b1, b2, a1, a2 []float64) {
	c := make([][]float64, 5)
	for k := range c {
		c[k] = make([]float64, B)
		for b := range c[k] {
			if shared && b > 0 {
				c[k][b] = c[k][0]
				continue
			}
			c[k][b] = rng.NormFloat64()
			if k >= 3 {
				c[k][b] *= 0.5
			}
		}
	}
	return c[0], c[1], c[2], c[3], c[4]
}

// TestBiquadBatchMatchesRef drives the lane-interleaved biquad and its
// frozen lane-major reference over identical lanes, states and
// coefficients — one design shared by the lanes and one per lane —
// asserting bit equality of every output sample and every final delay
// state, including NaN/±Inf lane contents, which each lane must propagate
// exactly as its own scalar recurrence would.
func TestBiquadBatchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, B := range batchWidths {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(200)
			adversarial := trial%2 == 1
			b0, b1, b2, a1, a2 := biquadCoefs(rng, B, trial%4 < 2)

			re := makePlanes(B, n)
			im := makePlanes(B, n)
			fillPlanes(rng, re, adversarial)
			fillPlanes(rng, im, adversarial)
			s1r, s1i := make([]float64, B), make([]float64, B)
			s2r, s2i := make([]float64, B), make([]float64, B)
			acsRandSoft(rng, s1r, false)
			acsRandSoft(rng, s1i, false)
			acsRandSoft(rng, s2r, false)
			acsRandSoft(rng, s2i, false)

			gre, gim := clonePlanes(re), clonePlanes(im)
			g1r := append([]float64(nil), s1r...)
			g1i := append([]float64(nil), s1i...)
			g2r := append([]float64(nil), s2r...)
			g2i := append([]float64(nil), s2i...)
			BiquadBatch(gre, gim, b0, b1, b2, a1, a2, g1r, g1i, g2r, g2i)

			wre, wim := clonePlanes(re), clonePlanes(im)
			BiquadBatchRef(wre, wim, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i)

			for b := 0; b < B; b++ {
				bitsEqualLane(t, "biquad re", b, gre[b], wre[b])
				bitsEqualLane(t, "biquad im", b, gim[b], wim[b])
			}
			bitsEqual(t, "biquad s1r", g1r, s1r)
			bitsEqual(t, "biquad s1i", g1i, s1i)
			bitsEqual(t, "biquad s2r", g2r, s2r)
			bitsEqual(t, "biquad s2i", g2i, s2i)
		}
	}
}

// TestBatchKernelsEmptyBatch pins the B=0 degenerate shape: a no-op, not a
// panic, so ragged dispatch logic upstream can stay branch-free.
func TestBatchKernelsEmptyBatch(t *testing.T) {
	ACSRunBatch(nil, nil, nil, nil, nil)
	BiquadBatch(nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil)
	BiquadBatchRef(nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil)
}

// benchBiquadBatch measures the lane-interleaved biquad against the
// lane-major reference at B=8 — the latency-bound recurrence the batch
// layer exists to fill — with one design shared by the lanes or one per
// lane.
func benchBiquadBatch(b *testing.B, perLane bool, run func(re, im [][]float64, b0, b1, b2, a1, a2, s1r, s1i, s2r, s2i []float64)) {
	const B, n = 8, 4096
	rng := rand.New(rand.NewSource(11))
	src := makePlanes(B, 2*n) // one backing set: first B are re, next B are im
	fillPlanes(rng, src, false)
	re := makePlanes(B, n)
	im := makePlanes(B, n)
	s1r, s1i := make([]float64, B), make([]float64, B)
	s2r, s2i := make([]float64, B), make([]float64, B)
	c := [5][]float64{}
	for k, v := range []float64{0.067455, 0.134911, 0.067455, -1.142981, 0.412802} {
		c[k] = make([]float64, B)
		for l := range c[k] {
			c[k][l] = v
			if perLane {
				c[k][l] *= 1 + 0.01*float64(l)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Refill from the pristine source each iteration: filtering in place
		// repeatedly would decay the signal into denormals and poison timing.
		for k := 0; k < B; k++ {
			copy(re[k], src[k][:n])
			copy(im[k], src[k][n:])
			s1r[k], s1i[k], s2r[k], s2i[k] = 0, 0, 0, 0
		}
		run(re, im, c[0], c[1], c[2], c[3], c[4], s1r, s1i, s2r, s2i)
	}
}

func BenchmarkBiquadBatch(b *testing.B)        { benchBiquadBatch(b, false, BiquadBatch) }
func BenchmarkBiquadBatchPerLane(b *testing.B) { benchBiquadBatch(b, true, BiquadBatch) }
func BenchmarkBiquadBatchRef(b *testing.B)     { benchBiquadBatch(b, false, BiquadBatchRef) }
