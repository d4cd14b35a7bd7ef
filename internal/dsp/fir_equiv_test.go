package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Equivalence suite for the block-convolution FIR rewrite: every path
// (direct block, FFT overlap-save, single-sample) must reproduce the
// original per-sample ring-buffer filter sample for sample, across awkward
// frame sizes, interleaved Resets and streaming history carried between
// frames.

const firEquivTol = 1e-12

// refFIR is the original modulo ring-buffer implementation, kept as the
// test oracle.
type refFIR struct {
	taps  []complex128
	delay []complex128
	pos   int
}

func newRefFIR(taps []complex128) *refFIR {
	return &refFIR{taps: taps, delay: make([]complex128, len(taps))}
}

func (f *refFIR) reset() {
	for i := range f.delay {
		f.delay[i] = 0
	}
	f.pos = 0
}

func (f *refFIR) process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		f.delay[f.pos] = v
		var acc complex128
		idx := f.pos
		for _, t := range f.taps {
			acc += f.delay[idx] * t
			idx--
			if idx < 0 {
				idx = len(f.delay) - 1
			}
		}
		f.pos++
		if f.pos == len(f.delay) {
			f.pos = 0
		}
		out[i] = acc
	}
	return out
}

func realTaps(rng *rand.Rand, n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	return h
}

func complexTaps(rng *rand.Rand, n int) []complex128 {
	h := make([]complex128, n)
	for i := range h {
		h[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return h
}

func toComplex(h []float64) []complex128 {
	out := make([]complex128, len(h))
	for i, v := range h {
		out[i] = complex(v, 0)
	}
	return out
}

func assertClose(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if d := cmplxAbs(got[i] - want[i]); d > firEquivTol {
			t.Fatalf("%s: sample %d differs by %g (got %v, want %v)",
				label, i, d, got[i], want[i])
		}
	}
}

func cmplxAbs(v complex128) float64 {
	re, im := real(v), imag(v)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	return re + im
}

// frameSchedules are the frame-length sequences each tap count is streamed
// through: single samples, prime lengths, one big frame, and ragged mixes
// that leave partial history between frames.
func frameSchedules() [][]int {
	return [][]int{
		{1, 1, 1, 1, 1, 1, 1, 1},
		{7, 13, 31, 97, 101},
		{1021},
		{1, 257, 1, 640, 3, 89},
		{5, 500, 5, 500},
	}
}

// TestFIRMatchesPerSampleReference streams random signals through NewFIR
// frame by frame and checks every output against the ring-buffer oracle,
// with a Reset in the middle to prove state clearing matches too.
func TestFIRMatchesPerSampleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, taps := range []int{1, 2, 3, 11, 47, 48, 64, 101, 193, 331} {
		for si, frames := range frameSchedules() {
			h := realTaps(rng, taps)
			f := NewFIR(h)
			ref := newRefFIR(toComplex(h))
			for pass := 0; pass < 2; pass++ {
				for fi, n := range frames {
					x := randomSignal(rng, n)
					want := ref.process(x)
					got := f.Process(append([]complex128(nil), x...))
					assertClose(t, fmt.Sprintf("taps=%d sched=%d pass=%d frame=%d", taps, si, pass, fi), got, want)
				}
				// Second pass re-runs the schedule after an
				// interleaved Reset.
				f.Reset()
				ref.reset()
			}
		}
	}
}

// TestComplexFIRMatchesPerSampleReference is the same sweep for the
// complex-tap filter.
func TestComplexFIRMatchesPerSampleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, taps := range []int{1, 2, 13, 48, 64, 256} {
		for si, frames := range frameSchedules() {
			h := complexTaps(rng, taps)
			f, err := NewComplexFIR(h)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefFIR(h)
			for pass := 0; pass < 2; pass++ {
				for fi, n := range frames {
					x := randomSignal(rng, n)
					want := ref.process(x)
					got := f.Process(append([]complex128(nil), x...))
					assertClose(t, fmt.Sprintf("taps=%d sched=%d pass=%d frame=%d", taps, si, pass, fi), got, want)
				}
				f.Reset()
				ref.reset()
			}
		}
	}
}

// TestFIRProcessSampleMatchesProcess mixes the two entry points on one
// filter instance: they must advance the same history.
func TestFIRProcessSampleMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := realTaps(rng, 31)
	f := NewFIR(h)
	ref := newRefFIR(toComplex(h))
	for round := 0; round < 6; round++ {
		if round%2 == 0 {
			x := randomSignal(rng, 53)
			want := ref.process(x)
			got := f.Process(append([]complex128(nil), x...))
			assertClose(t, fmt.Sprintf("round=%d frame", round), got, want)
			continue
		}
		for i := 0; i < 29; i++ {
			x := randomSignal(rng, 1)
			want := ref.process(x)
			got := f.ProcessSample(x[0])
			if d := cmplxAbs(got - want[0]); d > firEquivTol {
				t.Fatalf("round=%d sample %d differs by %g", round, i, d)
			}
		}
	}
}

// TestFIROverlapSaveEngaged pins the path-selection contract: the tap/frame
// sizes the long filters run at really do exercise the FFT engine, so the
// equivalence sweep above is testing it (and not silently the direct path).
func TestFIROverlapSaveEngaged(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := NewFIR(realTaps(rng, 193))
	f.Process(randomSignal(rng, 4096))
	if f.ols == nil {
		t.Fatal("193-tap filter on a 4096 frame did not build the overlap-save engine")
	}
	g := NewFIR(realTaps(rng, 11))
	g.Process(randomSignal(rng, 4096))
	if g.ols != nil {
		t.Fatal("11-tap filter unexpectedly took the overlap-save path")
	}
	if olsUsable(64, 64) {
		t.Fatal("overlap-save engaged on a frame too short to amortize it")
	}
}

// TestFIRProcessSteadyStateAllocs is the allocation gate from the perf PR:
// once warmed up, frame filtering must not touch the heap on either path.
func TestFIRProcessSteadyStateAllocs(t *testing.T) {
	skipAllocGateUnderRace(t) // the OLS path rides the FFT plan's scratch pool
	rng := rand.New(rand.NewSource(11))
	for _, taps := range []int{11, 193} {
		f := NewFIR(realTaps(rng, taps))
		x := randomSignal(rng, 4096)
		f.Process(append([]complex128(nil), x...)) // warm scratch + OLS engine
		buf := make([]complex128, len(x))
		allocs := testing.AllocsPerRun(10, func() {
			copy(buf, x)
			f.Process(buf)
		})
		if allocs != 0 {
			t.Errorf("taps=%d: %v allocs per Process, want 0", taps, allocs)
		}
	}
}

// ProcessSample filters one sample, updating the internal state.
func (f *FIR) ProcessSample(x complex128) complex128 {
	acc := x * complex(f.taps[0], 0)
	p := len(f.hist)
	for j := 1; j < len(f.taps); j++ {
		acc += f.hist[p-j] * complex(f.taps[j], 0)
	}
	if p > 0 {
		copy(f.hist, f.hist[1:])
		f.hist[p-1] = x
	}
	return acc
}
