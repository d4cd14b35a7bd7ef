package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// planes splits complex lanes into the planar form ProcessPlanar takes.
func planes(lanes [][]complex128) (re, im [][]float64) {
	re = make([][]float64, len(lanes))
	im = make([][]float64, len(lanes))
	for l, lane := range lanes {
		re[l] = make([]float64, len(lane))
		im[l] = make([]float64, len(lane))
		for i, v := range lane {
			re[l][i], im[l][i] = real(v), imag(v)
		}
	}
	return re, im
}

// TestIIRBatchMatchesSequential pins lane b of the batched cascade
// (ProcessPlanar) bit-identical to IIR.Process on that lane alone, across batch widths,
// filter designs (odd/even Chebyshev order, DC block with its non-unity
// gain) and multi-frame streaming state carry.
func TestIIRBatchMatchesSequential(t *testing.T) {
	cheb5, err := DesignChebyshev1(5, Lowpass, 9.5e6/20e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cheb4, err := DesignChebyshev1(4, Lowpass, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dcb, err := DesignDCBlock(150e3 / 20e6)
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*IIR{"cheb5": cheb5, "cheb4": cheb4, "dcblock": dcb}

	rng := rand.New(rand.NewSource(31))
	for name, f := range designs {
		for _, B := range []int{1, 2, 3, 5, 8, 16} {
			batch := NewIIRBatch(f)
			// Sequential oracles: one cascade clone per lane so streaming
			// state carries per lane across frames, as the batch states do.
			seq := make([]*IIR, B)
			for l := range seq {
				seq[l] = NewIIR(f.Gain, f.Sections)
			}
			for frame := 0; frame < 3; frame++ {
				n := 1 + rng.Intn(300)
				want := make([][]complex128, B)
				for l := 0; l < B; l++ {
					want[l] = make([]complex128, n)
					for i := range want[l] {
						want[l][i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
				}
				re, im := planes(want)
				batch.ProcessPlanar(re, im)
				for l := 0; l < B; l++ {
					seq[l].Process(want[l])
					for i := range want[l] {
						if math.Float64bits(re[l][i]) != math.Float64bits(real(want[l][i])) ||
							math.Float64bits(im[l][i]) != math.Float64bits(imag(want[l][i])) {
							t.Fatalf("%s B=%d frame %d lane %d sample %d: batch %v != sequential %v",
								name, B, frame, l, i, complex(re[l][i], im[l][i]), want[l][i])
						}
					}
				}
			}
		}
	}
}

// TestIIRBatchReset pins that Reset zeroes every lane state: a reset batch
// must reproduce a fresh batch bit for bit.
func TestIIRBatchReset(t *testing.T) {
	f, err := DesignChebyshev1(5, Lowpass, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	const B, n = 4, 128
	mk := func(seed int64) [][]complex128 {
		r := rand.New(rand.NewSource(seed))
		lanes := make([][]complex128, B)
		for l := range lanes {
			lanes[l] = make([]complex128, n)
			for i := range lanes[l] {
				lanes[l][i] = complex(r.NormFloat64(), r.NormFloat64())
			}
		}
		return lanes
	}
	_ = rng

	batch := NewIIRBatch(f)
	batch.ProcessPlanar(planes(mk(1)))
	batch.Reset()
	gr, gi := planes(mk(2))
	batch.ProcessPlanar(gr, gi)

	fresh := NewIIRBatch(f)
	wr, wi := planes(mk(2))
	fresh.ProcessPlanar(wr, wi)

	for l := 0; l < B; l++ {
		for i := 0; i < n; i++ {
			if gr[l][i] != wr[l][i] || gi[l][i] != wi[l][i] {
				t.Fatalf("lane %d sample %d: reset batch %v != fresh batch %v", l, i,
					complex(gr[l][i], gi[l][i]), complex(wr[l][i], wi[l][i]))
			}
		}
	}
}

// TestIIRBatchLanesMatchesSequential pins ProcessLanes with a design per
// lane — Chebyshev orders 5 and 4 (different section counts, so separate
// kernel groups), the DC block's non-unity gain and an unfiltered lane —
// to one cascade clone per lane, over streamed frames on which the call's
// lanes are a changing subset of the lane ids in a changing order.
func TestIIRBatchLanesMatchesSequential(t *testing.T) {
	cheb5, err := DesignChebyshev1(5, Lowpass, 9.5e6/20e6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cheb5b, err := DesignChebyshev1(5, Lowpass, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cheb4, err := DesignChebyshev1(4, Lowpass, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dcb, err := DesignDCBlock(150e3 / 20e6)
	if err != nil {
		t.Fatal(err)
	}
	designs := []*IIR{cheb5, cheb4, dcb, nil, cheb5b, cheb4, cheb5, cheb5b, dcb}
	batch := NewIIRBatch(cheb5)
	seq := make([]*IIR, len(designs))
	for l, f := range designs {
		batch.SetLane(l, f)
		if f != nil {
			seq[l] = NewIIR(f.Gain, f.Sections)
		}
	}
	rng := rand.New(rand.NewSource(33))
	for frame := 0; frame < 12; frame++ {
		ids := rng.Perm(len(designs))[:1+rng.Intn(len(designs))]
		n := rng.Intn(200)
		want := make([][]complex128, len(ids))
		for k := range want {
			want[k] = make([]complex128, n)
			for i := range want[k] {
				want[k][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		re, im := planes(want)
		batch.ProcessLanes(re, im, ids)
		for k, id := range ids {
			if seq[id] != nil {
				seq[id].Process(want[k])
			}
			for i := range want[k] {
				if math.Float64bits(re[k][i]) != math.Float64bits(real(want[k][i])) ||
					math.Float64bits(im[k][i]) != math.Float64bits(imag(want[k][i])) {
					t.Fatalf("frame %d lane %d sample %d: batch %v != sequential %v",
						frame, id, i, complex(re[k][i], im[k][i]), want[k][i])
				}
			}
		}
		if frame == 6 {
			batch.ResetLane(ids[0])
			if seq[ids[0]] != nil {
				seq[ids[0]].Reset()
			}
		}
	}
}
