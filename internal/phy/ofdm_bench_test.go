package phy

import (
	"math/rand"
	"testing"
)

// benchSymbol builds one valid 80-sample OFDM DATA symbol.
func benchSymbol(tb testing.TB) []complex128 {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	bits := make([]byte, Modes[0].NCBPS())
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	syms, err := MapBits(bits, BPSK)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := AssembleSpectrum(syms, 1)
	if err != nil {
		tb.Fatal(err)
	}
	td, err := ModulateSymbol(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return td
}

func BenchmarkDemodulateSymbol(b *testing.B) {
	sym := benchSymbol(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DemodulateSymbolInto(nil, sym); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModulateSymbol(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	data := make([]complex128, NumDataCarriers)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec, err := AssembleSpectrum(data, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ModulateSymbol(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSymbolTrain builds nsym valid OFDM DATA symbols back to back.
func benchSymbolTrain(tb testing.TB, nsym int) [][]complex128 {
	tb.Helper()
	sym := benchSymbol(tb)
	train := make([][]complex128, nsym)
	for i := range train {
		s := make([]complex128, len(sym))
		copy(s, sym)
		train[i] = s
	}
	return train
}

func BenchmarkDemodulateSymbols(b *testing.B) {
	const nsym = 32
	train := benchSymbolTrain(b, nsym)
	dst := make([][]complex128, nsym)
	for i := range dst {
		dst[i] = make([]complex128, FFTSize)
	}
	b.ReportAllocs()
	b.SetBytes(nsym * SymbolLen * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DemodulateSymbols(dst, train); err != nil {
			b.Fatal(err)
		}
	}
}
