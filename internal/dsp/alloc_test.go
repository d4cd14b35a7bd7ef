package dsp

import (
	"math/rand"
	"testing"

	"wlansim/internal/race"
)

// skipAllocGateUnderRace skips a steady-state allocation gate under the race
// detector, where sync.Pool intentionally drops Puts and the warm-pool
// zero-allocation contract cannot hold. check.sh re-runs these gates without
// -race, where they are enforced.
func skipAllocGateUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the non-race alloc gate enforces this contract")
	}
}

// TestFFTTransformAllocFree gates the planar FFT engine's steady-state
// contract: once the plan's scratch pool is warm, Forward, Inverse, the
// and the batched four-lane transforms (n = 64, the OFDM hot path) allocate
// nothing.
func TestFFTTransformAllocFree(t *testing.T) {
	skipAllocGateUnderRace(t)
	rng := rand.New(rand.NewSource(3))
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	dst := append([]complex128(nil), x...)
	frames := make([][]complex128, 5)
	for f := range frames {
		frames[f] = append([]complex128(nil), x...)
	}
	// Warm the plan pools and the shared plan cache.
	p.Forward(dst)
	p.ForwardMany(frames)

	if got := testing.AllocsPerRun(20, func() {
		p.Forward(dst)
		p.Inverse(dst)
		p.ForwardMany(frames)
		p.InverseMany(frames)
	}); got != 0 {
		t.Fatalf("planar FFT path allocates %v objects per steady-state run, want 0", got)
	}
}

// TestOLSConvAllocFree gates the overlap-save block convolution: with a warm
// engine the planar spectral round trip allocates nothing per frame.
func TestOLSConvAllocFree(t *testing.T) {
	skipAllocGateUnderRace(t)
	rng := rand.New(rand.NewSource(4))
	taps := make([]complex128, 64)
	for i := range taps {
		taps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := newOLSConv(taps)
	ext := make([]complex128, len(taps)-1+256)
	for i := range ext {
		ext[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 256)
	c.process(dst, ext)

	if got := testing.AllocsPerRun(20, func() {
		c.process(dst, ext)
	}); got != 0 {
		t.Fatalf("overlap-save path allocates %v objects per steady-state run, want 0", got)
	}
}

// TestUpsamplerStreamAllocFree gates the streaming upsampler: once the
// overlap-save engine and the scratch are warm, draining a frame with
// Begin/Next allocates nothing, on the OLS and the direct path alike.
func TestUpsamplerStreamAllocFree(t *testing.T) {
	skipAllocGateUnderRace(t)
	rng := rand.New(rand.NewSource(5))
	u, err := NewUpsampler(32, 513)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]complex128, 2020)
	short := make([]complex128, 20)
	for i := range long {
		long[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	copy(short, long)
	drain := func(x []complex128) {
		u.Begin(x)
		for blk := u.Next(); blk != nil; blk = u.Next() {
		}
	}
	drain(long)
	drain(short)
	if got := testing.AllocsPerRun(10, func() {
		drain(long)
		drain(short)
	}); got != 0 {
		t.Fatalf("streaming upsampler allocates %v objects per steady-state frame pair, want 0", got)
	}
}
