package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/units"
)

func tone(n int, nu float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*nu*float64(i)))
	}
	return x
}

// dominantBin returns the FFT bin with maximum magnitude.
func dominantBin(x []complex128) int {
	fx := FFT(x)
	best, bestMag := 0, 0.0
	for i, v := range fx {
		if m := cmplx.Abs(v); m > bestMag {
			best, bestMag = i, m
		}
	}
	return best
}

func TestUpsamplerPreservesTone(t *testing.T) {
	// A tone at nu=1/16 upsampled by 4 must appear at nu=1/64.
	u, err := NewUpsampler(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tone(256, 1.0/16)
	y := u.Process(x)
	if len(y) != 1024 {
		t.Fatalf("output length %d, want 1024", len(y))
	}
	// Skip the filter transient, then check the dominant frequency.
	if bin := dominantBin(y[256:768]); bin != 8 { // 512 * 1/64 = 8
		t.Errorf("dominant bin %d, want 8", bin)
	}
	// Amplitude preserved within 5%.
	p := units.MeanPower(y[256:768])
	if math.Abs(p-1) > 0.05 {
		t.Errorf("tone power after upsampling %v, want ~1", p)
	}
}

func TestUpsamplerFactorOneIsCopy(t *testing.T) {
	u, _ := NewUpsampler(1, 0)
	x := []complex128{1, 2i, 3}
	y := u.Process(x)
	if maxAbsDiff(x, y) != 0 {
		t.Error("factor-1 upsampler altered the signal")
	}
	y[0] = 99
	if x[0] == 99 {
		t.Error("factor-1 upsampler aliased the input slice")
	}
}

func TestDownsamplerRemovesOutOfBandTone(t *testing.T) {
	// Signal: in-band tone at nu=0.05 plus out-of-band tone at nu=0.4.
	// After filtered decimation by 4 the out-of-band tone must be gone.
	n := 2048
	x := make([]complex128, n)
	inband := tone(n, 0.05)
	outband := tone(n, 0.4)
	for i := range x {
		x[i] = inband[i] + outband[i]
	}
	d, err := NewDownsampler(4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	y := d.Process(x)
	if len(y) != n/4 {
		t.Fatalf("output length %d, want %d", len(y), n/4)
	}
	// In the decimated domain the in-band tone sits at nu=0.2.
	seg := y[128:384]
	bin := dominantBin(seg)
	want := 51 // round(0.2 * 256)
	if bin != want {
		t.Errorf("dominant bin %d, want %d", bin, want)
	}
	// The aliased image of the 0.4 tone would land at nu=0.4*4 mod 1 = 0.6
	// (bin 154 of 256); its power must be heavily suppressed.
	fy := FFT(Clone(seg))
	alias := cmplx.Abs(fy[154]) // round(0.6 * 256)
	main := cmplx.Abs(fy[want])
	if alias > main/100 {
		t.Errorf("alias %v not suppressed vs main %v", alias, main)
	}
}

func TestUnfilteredDownsamplerAliases(t *testing.T) {
	// Without the anti-aliasing filter the out-of-band tone folds in-band.
	n := 2048
	x := tone(n, 0.4)
	d, err := NewDownsampler(4, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	y := d.Process(x)
	// 0.4*4 = 1.6 -> folds to 0.6 (equivalently -0.4): full power remains.
	p := units.MeanPower(y)
	if p < 0.9 {
		t.Errorf("aliased tone power %v, want ~1", p)
	}
}

func TestDownsamplerPhasePersistsAcrossFrames(t *testing.T) {
	d1, _ := NewDownsampler(3, 0, false)
	d2, _ := NewDownsampler(3, 0, false)
	x := make([]complex128, 30)
	for i := range x {
		x[i] = complex(float64(i), 0)
	}
	batch := d1.Process(Clone(x))
	var stream []complex128
	for start := 0; start < len(x); start += 7 {
		end := start + 7
		if end > len(x) {
			end = len(x)
		}
		stream = append(stream, d2.Process(Clone(x[start:end]))...)
	}
	if len(batch) != len(stream) {
		t.Fatalf("lengths differ: %d vs %d", len(batch), len(stream))
	}
	if maxAbsDiff(batch, stream) != 0 {
		t.Errorf("frame-wise decimation differs: %v vs %v", stream, batch)
	}
}

func TestResamplerValidation(t *testing.T) {
	if _, err := NewUpsampler(0, 0); err == nil {
		t.Error("accepted upsample factor 0")
	}
	if _, err := NewDownsampler(0, 0, true); err == nil {
		t.Error("accepted downsample factor 0")
	}
}

func TestOscillatorFrequency(t *testing.T) {
	// 1024 samples of a nu=1/32 oscillator: dominant FFT bin 32.
	o := NewOscillator(1.0/32, 0)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = o.Next()
	}
	if bin := dominantBin(x); bin != 32 {
		t.Errorf("dominant bin %d, want 32", bin)
	}
}

func TestOscillatorAmplitudeStable(t *testing.T) {
	o := NewOscillator(0.01234, 0.5)
	for i := 0; i < 1_000_000; i++ {
		o.Next()
	}
	if m := cmplx.Abs(o.Next()); math.Abs(m-1) > 1e-6 {
		t.Errorf("oscillator amplitude drifted to %v", m)
	}
}

// upsampleRef is the whole-frame reference the streaming upsampler must
// reproduce: zero-stuff x into a fresh frame, scale by the factor and run
// the anti-imaging filter over it with FIR.Process.
func upsampleRef(f *FIR, factor int, x []complex128) []complex128 {
	out := make([]complex128, len(x)*factor)
	g := complex(float64(factor), 0)
	for i, v := range x {
		out[i*factor] = v * g
	}
	return f.Process(out)
}

// TestUpsamplerStreamMatchesFIR pins the streaming upsampler bit-identical
// to zero stuffing plus FIR.Process on a twin filter: frames on both sides
// of the overlap-save threshold, lengths that are not a whole number of
// blocks, frames shorter than the filter history and back-to-back frames
// that carry the history across calls. Both Process and a hand-driven
// Begin/Next stream are checked, and Next's blocks must follow the
// overlap-save block split.
func TestUpsamplerStreamMatchesFIR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ factor, taps int }{{32, 513}, {16, 257}, {4, 255}, {4, 0}, {3, 31}, {1, 0}, {8, 101}, {64, 371}} {
		u, err := NewUpsampler(tc.factor, tc.taps)
		if err != nil {
			t.Fatal(err)
		}
		var ref *FIR
		if u.filter != nil {
			ref = NewFIR(u.filter.taps)
		}
		for k, n := range []int{2020, 37, 5, 200, 1, 0, 4000, 31, 33, 17, 113} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := x
			if ref != nil {
				want = upsampleRef(ref, tc.factor, x)
			}
			var got []complex128
			if k%2 == 0 {
				got = u.Process(x)
			} else {
				u.Begin(x)
				for blk := u.Next(); blk != nil; blk = u.Next() {
					if u.filter != nil && u.filter.ols != nil && olsUsable(len(u.filter.taps), len(want)) &&
						len(blk) != u.filter.ols.l && len(got)+len(blk) != len(want) {
						t.Fatalf("factor %d frame %d: inner block of %d samples, want %d",
							tc.factor, n, len(blk), u.filter.ols.l)
					}
					got = append(got, blk...)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("factor %d taps %d frame %d: %d samples, want %d", tc.factor, tc.taps, n, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("factor %d taps %d frame %d: sample %d = %v, want %v", tc.factor, tc.taps, n, i, got[i], want[i])
				}
			}
		}
	}
}
