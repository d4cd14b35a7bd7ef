package phy

import (
	"fmt"

	"wlansim/internal/dsp"
)

// DataCarriers lists the 48 data subcarrier indices in logical order
// (clause 17.3.5.9): -26..26 excluding DC and the pilots at +-7 and +-21.
var DataCarriers = buildDataCarriers()

// PilotCarriers lists the four pilot subcarrier indices.
var PilotCarriers = [NumPilots]int{-21, -7, 7, 21}

// pilotBase holds the un-scrambled pilot values P_{-21,-7,7,21} = 1,1,1,-1.
var pilotBase = [NumPilots]float64{1, 1, 1, -1}

func buildDataCarriers() [NumDataCarriers]int {
	var out [NumDataCarriers]int
	i := 0
	for c := -26; c <= 26; c++ {
		switch c {
		case 0, -21, -7, 7, 21:
			continue
		}
		out[i] = c
		i++
	}
	return out
}

// carrierBin maps a subcarrier index (-32..31) to its FFT bin (0..63).
func carrierBin(c int) int { return (c + FFTSize) % FFTSize }

var ofdmPlan = mustPlan()

func mustPlan() *dsp.FFTPlan {
	p, err := dsp.NewFFTPlan(FFTSize)
	if err != nil {
		panic(err)
	}
	return p
}

// AssembleSpectrum places 48 data symbols and the four pilots (scaled by the
// polarity for OFDM symbol index n) into a 64-bin frequency-domain vector in
// FFT order.
func AssembleSpectrum(data []complex128, symbolIndex int) ([]complex128, error) {
	return AssembleSpectrumInto(nil, data, symbolIndex)
}

// AssembleSpectrumInto is AssembleSpectrum writing into dst (grown if its
// capacity is short, reused otherwise — unused bins are cleared).
func AssembleSpectrumInto(dst, data []complex128, symbolIndex int) ([]complex128, error) {
	if len(data) != NumDataCarriers {
		return nil, fmt.Errorf("phy: %d data symbols, want %d", len(data), NumDataCarriers)
	}
	if cap(dst) < FFTSize {
		dst = make([]complex128, FFTSize)
	}
	spec := dst[:FFTSize]
	for i := range spec {
		spec[i] = 0
	}
	for i, c := range DataCarriers {
		spec[carrierBin(c)] = data[i]
	}
	p := PilotPolarity(symbolIndex)
	for i, c := range PilotCarriers {
		spec[carrierBin(c)] = complex(pilotBase[i]*p, 0)
	}
	return spec, nil
}

// OFDM modulation and demodulation run symbol-major: the transmitter
// assembles every DATA-symbol spectrum first and the receiver slices every
// DATA symbol first, then the whole train goes through the plan's four-lane
// batched transforms (dsp.FFTPlan.InverseMany/ForwardMany). Each lane carries
// one unchanged single-symbol butterfly chain, so a train is byte-identical
// to transforming its symbols one at a time. The single-symbol functions are
// one-symbol trains.

// SymbolMajorEnabled reports whether OFDM modulation runs symbol-major. It
// always does; the function remains so that run metadata recording the
// setting stays comparable across versions.
func SymbolMajorEnabled() bool { return true }

const sqrt52 = 7.211102550927978 // sqrt(52)

// ModulateSymbol converts a 64-bin frequency-domain vector into one
// time-domain OFDM symbol of 80 samples (16-sample cyclic prefix + 64-sample
// useful part). The IFFT is scaled by FFTSize/sqrt(52) so that the mean
// time-domain power equals the mean per-carrier symbol energy (unit for the
// normalized constellations).
func ModulateSymbol(spec []complex128) ([]complex128, error) {
	return ModulateSymbolAppend(make([]complex128, 0, SymbolLen), spec)
}

// ModulateSymbolAppend appends the 80-sample OFDM symbol for spec to dst and
// returns it. The transform runs in place inside dst's grown tail, so a
// caller reusing the buffer across symbols allocates nothing.
func ModulateSymbolAppend(dst, spec []complex128) ([]complex128, error) {
	var view [1][]complex128
	out, _, err := ModulateSymbolsAppend(dst, [][]complex128{spec}, view[:])
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ModulateSymbolsAppend appends one 80-sample OFDM symbol per spectrum to
// dst, batching the inverse transforms four symbols at a time. views is
// caller-retained scratch for the time-domain frame views (grown on demand,
// returned for reuse).
func ModulateSymbolsAppend(dst []complex128, specs [][]complex128, views [][]complex128) ([]complex128, [][]complex128, error) {
	for _, spec := range specs {
		if len(spec) != FFTSize {
			return dst, views, fmt.Errorf("phy: spectrum length %d, want %d", len(spec), FFTSize)
		}
	}
	base := len(dst)
	need := base + len(specs)*SymbolLen
	if cap(dst) < need {
		grown := make([]complex128, base, need+need/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	if cap(views) < len(specs) {
		views = make([][]complex128, len(specs))
	}
	views = views[:len(specs)]
	for n, spec := range specs {
		td := dst[base+n*SymbolLen+CPLen : base+(n+1)*SymbolLen]
		copy(td, spec)
		views[n] = td
	}
	ofdmPlan.InverseMany(views)
	// Undo the 1/N of the inverse transform and normalize by the number of
	// occupied carriers: x = IFFT(X) * N / sqrt(52), so unit-energy carriers
	// yield unit mean time-domain power.
	scale := complex(float64(FFTSize)/sqrt52, 0)
	for n, td := range views {
		for i := range td {
			td[i] *= scale
		}
		sym := dst[base+n*SymbolLen : base+(n+1)*SymbolLen]
		copy(sym[:CPLen], td[FFTSize-CPLen:])
	}
	return dst, views, nil
}

// DemodulateSymbolInto converts one 80-sample OFDM symbol back into the
// 64-bin frequency-domain vector (inverse of ModulateSymbol, assuming
// perfect timing), writing into dst (grown if its capacity is short, reused
// otherwise — pass the previous return value to stop allocating).
func DemodulateSymbolInto(dst, sym []complex128) ([]complex128, error) {
	if cap(dst) < FFTSize {
		dst = make([]complex128, FFTSize)
	}
	spec := dst[:FFTSize]
	if err := DemodulateSymbols([][]complex128{spec}, [][]complex128{sym}); err != nil {
		return nil, err
	}
	return spec, nil
}

// DemodulateSymbols converts each 80-sample OFDM symbol in syms into its
// 64-bin spectrum in dst[i], batching the forward transforms four symbols at
// a time. Every dst[i] must already have FFTSize elements (the caller owns
// the backing store).
func DemodulateSymbols(dst, syms [][]complex128) error {
	if len(dst) < len(syms) {
		return fmt.Errorf("phy: %d spectrum buffers for %d symbols", len(dst), len(syms))
	}
	for i, sym := range syms {
		if len(sym) != SymbolLen {
			return fmt.Errorf("phy: symbol length %d, want %d", len(sym), SymbolLen)
		}
		if len(dst[i]) != FFTSize {
			return fmt.Errorf("phy: spectrum buffer length %d, want %d", len(dst[i]), FFTSize)
		}
		copy(dst[i], sym[CPLen:])
	}
	ofdmPlan.ForwardMany(dst[:len(syms)])
	scale := complex(sqrt52/float64(FFTSize), 0)
	for _, d := range dst[:len(syms)] {
		for j := range d {
			d[j] *= scale
		}
	}
	return nil
}

// ExtractDataInto writes the 48 data-carrier values of a frequency-domain
// vector in logical order into dst (grown if its capacity is short, reused
// otherwise).
func ExtractDataInto(dst, spec []complex128) ([]complex128, error) {
	if len(spec) != FFTSize {
		return nil, fmt.Errorf("phy: spectrum length %d, want %d", len(spec), FFTSize)
	}
	if cap(dst) < NumDataCarriers {
		dst = make([]complex128, NumDataCarriers)
	}
	out := dst[:NumDataCarriers]
	for i, c := range DataCarriers {
		out[i] = spec[carrierBin(c)]
	}
	return out, nil
}

// ExtractPilotsInto writes the four pilot-carrier values of a
// frequency-domain vector, in the order -21, -7, +7, +21, into dst (grown if
// its capacity is short, reused otherwise).
func ExtractPilotsInto(dst, spec []complex128) ([]complex128, error) {
	if len(spec) != FFTSize {
		return nil, fmt.Errorf("phy: spectrum length %d, want %d", len(spec), FFTSize)
	}
	if cap(dst) < NumPilots {
		dst = make([]complex128, NumPilots)
	}
	out := dst[:NumPilots]
	for i, c := range PilotCarriers {
		out[i] = spec[carrierBin(c)]
	}
	return out, nil
}

// ExpectedPilots returns the transmitted pilot values for OFDM symbol index
// n (SIGNAL symbol is n=0).
func ExpectedPilots(symbolIndex int) [NumPilots]complex128 {
	p := PilotPolarity(symbolIndex)
	var out [NumPilots]complex128
	for i := range out {
		out[i] = complex(pilotBase[i]*p, 0)
	}
	return out
}
