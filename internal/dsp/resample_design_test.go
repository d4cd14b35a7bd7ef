package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// freshLowpass designs the lowpass a resampler by factor with the given
// taps (0 = the default length) runs, outside the shared design cache.
func freshLowpass(t *testing.T, factor, taps int) *FIR {
	t.Helper()
	if taps == 0 {
		taps = 48*factor + 1
	}
	f, err := DesignLowpassFIR(taps, 0.5/float64(factor), Blackman)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// designFrames returns the frame lengths a resampler of the given design
// is checked on: one on each side of the overlap-save threshold (per is
// the output samples per input sample: the factor for an upsampler, 1 for
// a downsampler), a long frame, a frame carrying NaN and ±Inf samples,
// and the same long frame again after a Reset.
func designFrames(taps, per int) []int {
	below := max(1, (olsMinFrameFactor*taps-1)/per)
	above := (olsMinFrameFactor*taps + per - 1) / per
	return []int{below, above, 2020, above + 7, 2020}
}

func designFrame(rng *rand.Rand, n int, special bool) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if special {
		x[n/3] = complex(math.NaN(), 1)
		x[n/2] = complex(math.Inf(1), math.Inf(-1))
		x[n-1] = complex(-2, math.NaN())
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

var designCases = []struct{ factor, taps int }{
	{2, 0}, {2, 255}, {2, 513},
	{3, 0}, {3, 255}, {3, 513},
	{4, 0}, {4, 255}, {4, 513},
	{32, 0}, {32, 255}, {32, 513},
}

// TestUpsamplerDesignMatchesFresh pins upsamplers built on a shared design
// to zero stuffing plus a freshly designed DesignLowpassFIR, bit for bit:
// frames on both sides of the overlap-save threshold, NaN and ±Inf
// samples, and the history carried across frames up to a Reset. A second
// upsampler of the same (factor, taps) must run on the same taps and
// spectrum and stream the same samples.
func TestUpsamplerDesignMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, tc := range designCases {
		u, err := NewUpsampler(tc.factor, tc.taps)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewUpsampler(tc.factor, tc.taps)
		if err != nil {
			t.Fatal(err)
		}
		if &twin.filter.taps[0] != &u.filter.taps[0] || twin.filter.ols.olsSpectrum != u.filter.ols.olsSpectrum {
			t.Fatalf("factor %d taps %d: two upsamplers do not share one design", tc.factor, tc.taps)
		}
		ref := freshLowpass(t, tc.factor, tc.taps)
		frames := designFrames(len(ref.taps), tc.factor)
		for k, n := range frames {
			if k == len(frames)-1 {
				u.Reset()
				twin.Reset()
				ref.Reset()
			}
			x := designFrame(rng, n, k == len(frames)-2)
			want := upsampleRef(ref, tc.factor, x)
			got := u.Process(x)
			sameBits(t, "upsampler", got, want)
			twin.Begin(x)
			var streamed []complex128
			for blk := twin.Next(); blk != nil; blk = twin.Next() {
				streamed = append(streamed, blk...)
			}
			sameBits(t, "streamed twin", streamed, want)
		}
	}
}

// TestDownsamplerDesignMatchesFresh pins decimators built on a shared
// design to a freshly designed DesignLowpassFIR followed by picking every
// factor-th sample, with the decimation phase carried across frames.
func TestDownsamplerDesignMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range designCases {
		d, err := NewDownsampler(tc.factor, tc.taps, true)
		if err != nil {
			t.Fatal(err)
		}
		ref := freshLowpass(t, tc.factor, tc.taps)
		phase := 0
		frames := designFrames(len(ref.taps), 1)
		for k, n := range frames {
			if k == len(frames)-1 {
				d.Reset()
				ref.Reset()
				phase = 0
			}
			x := designFrame(rng, n, k == len(frames)-2)
			y := ref.Process(append([]complex128(nil), x...))
			var want []complex128
			for _, v := range y {
				if phase == 0 {
					want = append(want, v)
				}
				phase = (phase + 1) % tc.factor
			}
			sameBits(t, "downsampler", d.Process(x), want)
		}
	}
}

// TestUpsamplerDesignConcurrent streams two upsamplers of one design on
// two goroutines at once; each must reproduce the samples a lone upsampler
// streams. Under -race it checks that the shared taps, spectrum and FFT
// plan are only read.
func TestUpsamplerDesignConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	frames := [][]complex128{designFrame(rng, 2020, false), designFrame(rng, 37, false), designFrame(rng, 600, false)}
	lone, err := NewUpsampler(32, 513)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]complex128
	for _, x := range frames {
		want = append(want, lone.Process(x))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := NewUpsampler(32, 513)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				u.Reset()
				for k, x := range frames {
					u.Begin(x)
					var got []complex128
					for blk := u.Next(); blk != nil; blk = u.Next() {
						got = append(got, blk...)
					}
					for i := range want[k] {
						if math.Float64bits(real(got[i])) != math.Float64bits(real(want[k][i])) ||
							math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[k][i])) {
							t.Errorf("round %d frame %d: sample %d = %v, want %v", round, k, i, got[i], want[k][i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
