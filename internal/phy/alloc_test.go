package phy

import (
	"math/rand"
	"testing"

	"wlansim/internal/race"
)

// skipAllocGateUnderRace skips a steady-state allocation gate under the race
// detector, where sync.Pool (the FFT plan's scratch pool) intentionally
// drops Puts and the warm-pool zero-allocation contract cannot hold.
// check.sh re-runs these gates without -race, where they are enforced.
func skipAllocGateUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; the non-race alloc gate enforces this contract")
	}
}

// TestOFDMDemodAllocFree gates the receive hot path: with warm destination
// slices, OFDM symbol demodulation plus carrier extraction allocates nothing
// (the 64-point FFT plan is package-cached).
func TestOFDMDemodAllocFree(t *testing.T) {
	skipAllocGateUnderRace(t)
	rng := rand.New(rand.NewSource(2))
	sym := make([]complex128, SymbolLen)
	for i := range sym {
		sym[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	spec, err := DemodulateSymbolInto(nil, sym)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ExtractDataInto(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	pilots, err := ExtractPilotsInto(nil, spec)
	if err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(20, func() {
		var derr error
		spec, derr = DemodulateSymbolInto(spec[:0], sym)
		if derr != nil {
			panic("demod failed in alloc gate")
		}
		data, derr = ExtractDataInto(data[:0], spec)
		if derr != nil {
			panic("extract data failed in alloc gate")
		}
		pilots, derr = ExtractPilotsInto(pilots[:0], spec)
		if derr != nil {
			panic("extract pilots failed in alloc gate")
		}
	}); n != 0 {
		t.Fatalf("OFDM demod path allocates %v objects per steady-state run, want 0", n)
	}
}

// TestSymbolMajorModDemodAllocFree gates the symbol-major hot path: with warm
// destination buffers and view scratch, batch-modulating and batch-
// demodulating a whole DATA field allocates nothing, and neither does the
// one-symbol train behind ModulateSymbolAppend.
func TestSymbolMajorModDemodAllocFree(t *testing.T) {
	skipAllocGateUnderRace(t)
	rng := rand.New(rand.NewSource(5))
	const nSym = 9
	specs := make([][]complex128, nSym)
	for n := range specs {
		specs[n] = make([]complex128, FFTSize)
		for i := range specs[n] {
			specs[n][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	samples, views, err := ModulateSymbolsAppend(nil, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	syms := make([][]complex128, nSym)
	dst := make([][]complex128, nSym)
	for n := range syms {
		syms[n] = samples[n*SymbolLen : (n+1)*SymbolLen]
		dst[n] = make([]complex128, FFTSize)
	}
	if err := DemodulateSymbols(dst, syms); err != nil {
		t.Fatal(err)
	}

	if got := testing.AllocsPerRun(20, func() {
		var merr error
		samples, views, merr = ModulateSymbolsAppend(samples[:0], specs, views)
		if merr != nil {
			panic("batch modulate failed in alloc gate")
		}
		if derr := DemodulateSymbols(dst, syms); derr != nil {
			panic("batch demod failed in alloc gate")
		}
		if samples, merr = ModulateSymbolAppend(samples[:0], specs[0]); merr != nil {
			panic("single modulate failed in alloc gate")
		}
	}); got != 0 {
		t.Fatalf("symbol-major mod/demod path allocates %v objects per steady-state run, want 0", got)
	}
}
