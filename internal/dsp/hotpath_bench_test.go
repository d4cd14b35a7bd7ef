package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks of the filtering and transform kernels tracked by
// scripts/bench.sh (BENCH_*.json). Frame and tap sizes mirror the real
// chain: 11 taps ~ a short shaping filter, 64 ~ the K-model black box,
// 193 ~ the factor-4 resampler interpolator.

func benchFrame(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	return randomSignal(rng, n)
}

func BenchmarkFIRProcess(b *testing.B) {
	for _, taps := range []int{11, 64, 193} {
		b.Run(fmt.Sprintf("taps=%d", taps), func(b *testing.B) {
			h := make([]float64, taps)
			rng := rand.New(rand.NewSource(int64(taps)))
			for i := range h {
				h[i] = rng.NormFloat64()
			}
			f := NewFIR(h)
			x := benchFrame(4096, 2)
			buf := make([]complex128, len(x))
			b.ReportAllocs()
			b.SetBytes(int64(len(x) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				f.Process(buf)
			}
		})
	}
}

func BenchmarkComplexFIRProcess(b *testing.B) {
	for _, taps := range []int{64, 256} {
		b.Run(fmt.Sprintf("taps=%d", taps), func(b *testing.B) {
			h := make([]complex128, taps)
			rng := rand.New(rand.NewSource(int64(taps)))
			for i := range h {
				h[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			f, err := NewComplexFIR(h)
			if err != nil {
				b.Fatal(err)
			}
			x := benchFrame(4096, 3)
			buf := make([]complex128, len(x))
			b.ReportAllocs()
			b.SetBytes(int64(len(x) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				f.Process(buf)
			}
		})
	}
}

// BenchmarkFFT exercises the package-level FFT entry point, which the
// spectral estimators and test benches call per segment — plan reuse (or its
// absence) dominates here at small sizes.
func BenchmarkFFT(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := benchFrame(n, 4)
			b.ReportAllocs()
			b.SetBytes(int64(n * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFT(x)
			}
		})
	}
}

// BenchmarkFFTPlanForward is the floor: an in-place transform on a
// pre-built plan, no allocation at all.
func BenchmarkFFTPlanForward(b *testing.B) {
	const n = 64
	p, err := NewFFTPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	x := benchFrame(n, 5)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}

// BenchmarkDFT tracks both sides of DFT's routing boundary: n=1024 takes the
// FFT plan cache, n=257 the direct phasor-table path (whose per-element
// cmplx.Exp must stay out of the O(n^2) loop).
func BenchmarkDFT(b *testing.B) {
	for _, n := range []int{257, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := benchFrame(n, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DFT(x)
			}
		})
	}
}

// BenchmarkIIRCascade3 tracks the sequential channel-select cascade: an
// order-5 Chebyshev low-pass (two biquads plus a first-order tail) over a
// receiver-sized frame, the shape iirFused3 specializes.
func BenchmarkIIRCascade3(b *testing.B) {
	f, err := DesignChebyshev1(5, Lowpass, 9.5e6/20e6, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	x := benchFrame(4096, 3)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		f.Process(buf)
	}
}

// BenchmarkFFTBatch tracks the lane-parallel batched transform path
// (ForwardMany: four 64-point transforms per X4 pass), the shape the
// symbol-major OFDM demodulator drives.
func BenchmarkFFTBatch(b *testing.B) {
	p, err := NewFFTPlan(64)
	if err != nil {
		b.Fatal(err)
	}
	const frames = 32
	src := make([][]complex128, frames)
	buf := make([][]complex128, frames)
	for i := range src {
		src[i] = benchFrame(64, int64(100+i))
		buf[i] = make([]complex128, 64)
	}
	b.ReportAllocs()
	b.SetBytes(frames * 64 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range src {
			copy(buf[j], src[j])
		}
		p.ForwardMany(buf)
	}
}

// BenchmarkUpsamplerStream times the co-sim front end's interpolator alone:
// one 2020-sample frame (the Table 2 packet) streamed with Begin/Next
// through a 32x upsampler with a 513-tap filter, the overlap-save path
// (4096-point transforms, 3584 new samples per block).
func BenchmarkUpsamplerStream(b *testing.B) {
	u, err := NewUpsampler(32, 16*32+1)
	if err != nil {
		b.Fatal(err)
	}
	x := benchFrame(2020, 4)
	drain := func() {
		u.Reset()
		u.Begin(x)
		for blk := u.Next(); blk != nil; blk = u.Next() {
		}
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
}
