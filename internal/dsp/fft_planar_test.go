package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/kernels"
)

// Differential suite pinning the planar split-complex FFT pipeline to the
// frozen scalar transformRef — the pre-planar interleaved butterfly loop with
// its per-butterfly twiddle indexing and inverse-conjugation branch — bit for
// bit, under both kernel dispatch tiers, on Gaussian and adversarial frames.

// transformRef is the retained scalar interleaved transform, frozen as the
// differential-test oracle for the planar pipeline. It performs no
// normalization — the inverse caller scales by 1/N afterwards, exactly as
// the old Inverse did.
func (p *FFTPlan) transformRef(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFT input length %d does not match plan size %d", len(x), p.n))
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= p.n; size <<= 1 {
		half := size / 2
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

func planarRestoreDispatch(t *testing.T) {
	t.Helper()
	prev := kernels.DispatchName() != "purego"
	t.Cleanup(func() { kernels.SetDispatch(prev) })
}

func planarRandFrame(rng *rand.Rand, n int, adversarial bool) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		if adversarial {
			switch rng.Intn(20) {
			case 0:
				x[i] = complex(math.NaN(), rng.NormFloat64())
			case 1:
				x[i] = complex(math.Inf(1), math.Inf(-1))
			case 2:
				x[i] = complex(math.SmallestNonzeroFloat64, -1e308)
			case 3:
				x[i] = complex(math.Copysign(0, -1), 0)
			}
		}
	}
	return x
}

func framesBitsEqual(t *testing.T, ctx string, got, want []complex128) {
	t.Helper()
	for i := range got {
		gr, gi := real(got[i]), imag(got[i])
		wr, wi := real(want[i]), imag(want[i])
		if math.IsNaN(gr) && math.IsNaN(wr) {
			gr, wr = 0, 0
		}
		if math.IsNaN(gi) && math.IsNaN(wi) {
			gi, wi = 0, 0
		}
		if math.Float64bits(gr) != math.Float64bits(wr) ||
			math.Float64bits(gi) != math.Float64bits(wi) {
			t.Fatalf("%s: bin %d: %v != %v", ctx, i, got[i], want[i])
		}
	}
}

// TestPlanarTransformMatchesFrozenRef runs Forward and Inverse against the
// frozen scalar oracle (transformRef, plus the old caller-side 1/N scale
// loop on the inverse path) across sizes and both dispatch tiers.
func TestPlanarTransformMatchesFrozenRef(t *testing.T) {
	planarRestoreDispatch(t)
	rng := rand.New(rand.NewSource(61))
	for _, simd := range []bool{true, false} {
		kernels.SetDispatch(simd)
		for _, n := range []int{1, 2, 4, 8, 64, 128, 512} {
			p, err := NewFFTPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				adv := trial%2 == 1
				x := planarRandFrame(rng, n, adv)

				got := append([]complex128(nil), x...)
				p.Forward(got)
				want := append([]complex128(nil), x...)
				p.transformRef(want, false)
				framesBitsEqual(t, "forward", got, want)

				got = append([]complex128(nil), x...)
				p.Inverse(got)
				want = append([]complex128(nil), x...)
				p.transformRef(want, true)
				scale := complex(1/float64(n), 0)
				for i := range want {
					want[i] *= scale
				}
				framesBitsEqual(t, "inverse", got, want)
			}
		}
	}
}

// TestForwardManyMatchesForward drives the four-lane batched transforms over
// frame counts that cover whole quads, the scalar remainder and the empty
// batch, asserting each frame is bit-identical to its single-frame transform
// under both dispatch tiers.
func TestForwardManyMatchesForward(t *testing.T) {
	planarRestoreDispatch(t)
	rng := rand.New(rand.NewSource(62))
	for _, simd := range []bool{true, false} {
		kernels.SetDispatch(simd)
		for _, n := range []int{8, 64, 256} {
			p, err := NewFFTPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, frames := range []int{0, 1, 3, 4, 5, 8, 11} {
				for trial := 0; trial < 2; trial++ {
					adv := trial == 1
					batch := make([][]complex128, frames)
					single := make([][]complex128, frames)
					for f := range batch {
						batch[f] = planarRandFrame(rng, n, adv)
						single[f] = append([]complex128(nil), batch[f]...)
					}
					p.ForwardMany(batch)
					for f := range single {
						p.Forward(single[f])
						framesBitsEqual(t, "forwardmany", batch[f], single[f])
					}

					for f := range batch {
						batch[f] = planarRandFrame(rng, n, adv)
						single[f] = append([]complex128(nil), batch[f]...)
					}
					p.InverseMany(batch)
					for f := range single {
						p.Inverse(single[f])
						framesBitsEqual(t, "inversemany", batch[f], single[f])
					}
				}
			}
		}
	}
}
