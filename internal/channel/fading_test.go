package channel

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestFadingChannelValidation(t *testing.T) {
	if _, err := NewFadingChannel(0, 1, 10, 20e6, 1); err == nil {
		t.Error("accepted zero taps")
	}
	if _, err := NewFadingChannel(3, 1, 10, 0, 1); err == nil {
		t.Error("accepted zero sample rate")
	}
	if _, err := NewFadingChannel(3, 1, -5, 20e6, 1); err == nil {
		t.Error("accepted negative Doppler")
	}
}

func TestFadingChannelMeanPowerNormalized(t *testing.T) {
	// Average received power over many independent realizations ~ input
	// power (unit-normalized profile).
	var acc float64
	const trials = 200
	for seed := int64(0); seed < trials; seed++ {
		f, err := NewFadingChannel(5, 2, 50, 20e6, seed)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for _, tap := range f.taps {
			p += real(tap)*real(tap) + imag(tap)*imag(tap)
		}
		acc += p
	}
	acc /= trials
	if math.Abs(acc-1) > 0.15 {
		t.Errorf("mean channel power %v, want ~1", acc)
	}
}

func TestFadingChannelStaticWithZeroDoppler(t *testing.T) {
	f, err := NewFadingChannel(3, 2, 0, 20e6, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]complex128(nil), f.taps...)
	x := make([]complex128, 5000)
	for i := range x {
		x[i] = 1
	}
	f.Process(x)
	after := f.taps
	for i := range before {
		if cmplx.Abs(before[i]-after[i]) > 1e-12 {
			t.Fatalf("taps moved with zero Doppler: %v -> %v", before[i], after[i])
		}
	}
}

func TestFadingChannelTapsEvolveWithDoppler(t *testing.T) {
	f, err := NewFadingChannel(1, 1, 2000, 20e6, 9)
	if err != nil {
		t.Fatal(err)
	}
	before := f.taps[0]
	x := make([]complex128, 40000) // 2 ms at 20 MHz, 4 Doppler periods
	f.Process(x)
	after := f.taps[0]
	if cmplx.Abs(before-after) < 0.05 {
		t.Errorf("tap barely moved over 4 Doppler periods: %v -> %v", before, after)
	}
}

func TestFadingChannelCoherenceTime(t *testing.T) {
	// Autocorrelation of the tap process must decay over ~1/(2*fd).
	f, _ := NewFadingChannel(1, 1, 1000, 20e6, 11)
	n := 1 << 16
	taps := make([]complex128, n)
	for i := range taps {
		f.updateTaps()
		f.t++
		taps[i] = f.taps[0]
	}
	corr := func(lag int) float64 {
		var num complex128
		var den float64
		for i := 0; i+lag < n; i++ {
			num += taps[i+lag] * cmplx.Conj(taps[i])
			den += real(taps[i])*real(taps[i]) + imag(taps[i])*imag(taps[i])
		}
		return cmplx.Abs(num) / den
	}
	if c := corr(10); c < 0.95 {
		t.Errorf("correlation at tiny lag %v, want ~1", c)
	}
	// Half a Doppler period (10 kHz at 20 MHz = 1000 samples... fd=1 kHz ->
	// coherence ~ 20000 samples*0.4). At lag = fs/(2 fd) = 10000 the
	// correlation must have dropped substantially.
	if c := corr(10000); c > 0.9 {
		t.Errorf("correlation at half Doppler period %v, want decayed", c)
	}
}

func TestFadingChannelResetReplays(t *testing.T) {
	f, _ := NewFadingChannel(2, 1, 500, 20e6, 13)
	x := make([]complex128, 300)
	for i := range x {
		x[i] = complex(float64(i%5), 1)
	}
	a := f.Process(append([]complex128(nil), x...))
	ra := append([]complex128(nil), a...)
	f.Reset()
	b := f.Process(append([]complex128(nil), x...))
	for i := range ra {
		if ra[i] != b[i] {
			t.Fatal("Reset did not replay the fading trajectory")
		}
	}
}
