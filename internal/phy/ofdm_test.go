package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/units"
)

func TestDataCarrierLayout(t *testing.T) {
	if len(DataCarriers) != 48 {
		t.Fatalf("%d data carriers", len(DataCarriers))
	}
	seen := map[int]bool{}
	for _, c := range DataCarriers {
		if c == 0 || c < -26 || c > 26 {
			t.Errorf("carrier %d out of range", c)
		}
		for _, p := range PilotCarriers {
			if c == p {
				t.Errorf("data carrier %d collides with pilot", c)
			}
		}
		if seen[c] {
			t.Errorf("carrier %d duplicated", c)
		}
		seen[c] = true
	}
	// Logical order is ascending.
	for i := 1; i < len(DataCarriers); i++ {
		if DataCarriers[i] <= DataCarriers[i-1] {
			t.Errorf("carriers not ascending at %d", i)
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data, _ := MapBits(randomBits(r, 48*2), QPSK)
	spec, err := AssembleSpectrum(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	td, err := ModulateSymbol(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(td) != SymbolLen {
		t.Fatalf("symbol length %d", len(td))
	}
	// Cyclic prefix is a copy of the tail.
	for i := 0; i < CPLen; i++ {
		if td[i] != td[FFTSize+i] {
			t.Fatalf("cyclic prefix mismatch at %d", i)
		}
	}
	back, err := DemodulateSymbolInto(nil, td)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractDataInto(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-12 {
			t.Fatalf("carrier %d: %v != %v", i, got[i], data[i])
		}
	}
}

func TestPilotInsertion(t *testing.T) {
	data := make([]complex128, 48)
	spec, _ := AssembleSpectrum(data, 0) // p_0 = +1
	pilots, _ := ExtractPilotsInto(nil, spec)
	want := []complex128{1, 1, 1, -1}
	for i := range want {
		if pilots[i] != want[i] {
			t.Errorf("pilot %d = %v, want %v (p_0)", i, pilots[i], want[i])
		}
	}
	spec4, _ := AssembleSpectrum(data, 4) // p_4 = -1
	pilots4, _ := ExtractPilotsInto(nil, spec4)
	for i := range want {
		if pilots4[i] != -want[i] {
			t.Errorf("pilot %d with p_4: %v, want %v", i, pilots4[i], -want[i])
		}
	}
	exp := ExpectedPilots(4)
	for i := range exp {
		if exp[i] != pilots4[i] {
			t.Errorf("ExpectedPilots(4)[%d] = %v, want %v", i, exp[i], pilots4[i])
		}
	}
}

func TestDCAndGuardCarriersEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data, _ := MapBits(randomBits(r, 48*6), QAM64)
	spec, _ := AssembleSpectrum(data[:48], 1)
	if spec[0] != 0 {
		t.Error("DC carrier not empty")
	}
	for c := 27; c <= 37; c++ { // guard band: +27..+31 and -32..-27
		if spec[c] != 0 {
			t.Errorf("guard bin %d not empty", c)
		}
	}
}

func TestOFDMSymbolPowerNormalization(t *testing.T) {
	// With unit-energy constellation symbols the useful part of the OFDM
	// symbol has ~unit mean power.
	r := rand.New(rand.NewSource(3))
	var acc float64
	const n = 200
	for k := 0; k < n; k++ {
		data, _ := MapBits(randomBits(r, 48*4), QAM16)
		spec, _ := AssembleSpectrum(data, k)
		td, _ := ModulateSymbol(spec)
		acc += units.MeanPower(td[CPLen:])
	}
	acc /= n
	if math.Abs(acc-1) > 0.05 {
		t.Errorf("mean OFDM symbol power %v, want ~1", acc)
	}
}

func TestOFDMValidation(t *testing.T) {
	if _, err := AssembleSpectrum(make([]complex128, 10), 0); err == nil {
		t.Error("accepted short data")
	}
	if _, err := ModulateSymbol(make([]complex128, 10)); err == nil {
		t.Error("accepted short spectrum")
	}
	if _, err := DemodulateSymbolInto(nil, make([]complex128, 10)); err == nil {
		t.Error("accepted short symbol")
	}
	if _, err := ExtractDataInto(nil, make([]complex128, 10)); err == nil {
		t.Error("accepted short spectrum")
	}
	if _, err := ExtractPilotsInto(nil, make([]complex128, 10)); err == nil {
		t.Error("accepted short spectrum")
	}
}

func TestPreambleStructure(t *testing.T) {
	short := ShortPreamble()
	long := LongPreamble()
	if len(short) != 160 || len(long) != 160 {
		t.Fatalf("preamble lengths %d/%d", len(short), len(long))
	}
	// Short preamble is periodic with 16 samples.
	for i := 16; i < len(short); i++ {
		if cmplx.Abs(short[i]-short[i-16]) > 1e-12 {
			t.Fatalf("short preamble not 16-periodic at %d", i)
		}
	}
	// Long preamble repeats its 64-sample symbol.
	for i := 0; i < 64; i++ {
		if cmplx.Abs(long[32+i]-long[96+i]) > 1e-12 {
			t.Fatalf("long training symbols differ at %d", i)
		}
	}
	// The guard interval is the tail of the long symbol.
	for i := 0; i < 32; i++ {
		if cmplx.Abs(long[i]-long[96+32+i]) > 1e-12 {
			t.Fatalf("long guard interval mismatch at %d", i)
		}
	}
	full := Preamble()
	if len(full) != PreambleLen {
		t.Fatalf("preamble length %d", len(full))
	}
	// Preamble power is near unity (same normalization as data symbols).
	if p := units.MeanPower(full); math.Abs(p-1) > 0.3 {
		t.Errorf("preamble power %v, want ~1", p)
	}
}

func TestLongTrainingSpectrumBPSK(t *testing.T) {
	spec := LongTrainingSpectrum()
	n := 0
	for _, v := range spec {
		if v != 0 {
			if v != 1 && v != -1 {
				t.Errorf("long training value %v not +-1", v)
			}
			n++
		}
	}
	if n != 52 {
		t.Errorf("%d occupied carriers, want 52", n)
	}
}

func TestShortPreambleOnlyEveryFourthCarrier(t *testing.T) {
	// The 16-sample periodicity comes from occupying only carriers that
	// are multiples of 4.
	spec := shortTrainingSpectrum()
	for c := -32; c < 32; c++ {
		if c%4 != 0 && spec[carrierBin(c)] != 0 {
			t.Errorf("carrier %d occupied in short training symbol", c)
		}
	}
}
