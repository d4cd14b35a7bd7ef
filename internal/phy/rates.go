// Package phy implements the IEEE 802.11a (clause 17) OFDM physical layer:
// scrambling, convolutional coding with puncturing, interleaving,
// constellation mapping, OFDM modulation with pilots and cyclic prefix,
// PLCP preamble and SIGNAL field, and full PPDU assembly.
//
// All bit slices use one byte per bit (values 0/1) in 802.11 transmission
// order. All waveforms are complex baseband at the native 20 MHz chip rate
// unless stated otherwise.
package phy

import "fmt"

// Fundamental clause-17 OFDM dimensions.
const (
	// FFTSize is the OFDM transform length (64 subcarriers at 312.5 kHz).
	FFTSize = 64
	// CPLen is the cyclic-prefix length in samples (0.8 us at 20 MHz).
	CPLen = 16
	// SymbolLen is the full OFDM symbol length in samples (4 us at 20 MHz).
	SymbolLen = FFTSize + CPLen
	// NumDataCarriers is the number of data subcarriers per symbol.
	NumDataCarriers = 48
	// NumPilots is the number of pilot subcarriers per symbol.
	NumPilots = 4
	// SampleRate is the native baseband sample rate in Hz.
	SampleRate = 20e6
	// CarrierFrequency is the paper's RF carrier in Hz (5.2 GHz band).
	CarrierFrequency = 5.2e9
)

// CodeRate identifies a convolutional code rate after puncturing.
type CodeRate int

// Supported code rates.
const (
	Rate1_2 CodeRate = iota
	Rate2_3
	Rate3_4
)

// String returns "1/2", "2/3" or "3/4".
func (r CodeRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	default:
		return "?"
	}
}

// Modulation identifies the subcarrier constellation.
type Modulation int

// Supported subcarrier modulations.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String returns the constellation name.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	default:
		return "?"
	}
}

// BitsPerSymbol returns the number of coded bits carried by one subcarrier.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		return 0
	}
}

// Mode describes one clause-17 transmission rate.
type Mode struct {
	// RateMbps is the nominal data rate in megabits per second.
	RateMbps int
	// Modulation is the subcarrier constellation.
	Modulation Modulation
	// CodeRate is the punctured convolutional code rate.
	CodeRate CodeRate
	// RateBits is the 4-bit RATE field value of the SIGNAL symbol
	// (transmission order R1..R4, stored R4..R1 as an integer).
	RateBits byte
}

// NBPSC returns the coded bits per subcarrier.
func (m Mode) NBPSC() int { return m.Modulation.BitsPerSymbol() }

// NCBPS returns the coded bits per OFDM symbol.
func (m Mode) NCBPS() int { return m.NBPSC() * NumDataCarriers }

// NDBPS returns the data bits per OFDM symbol.
func (m Mode) NDBPS() int {
	switch m.CodeRate {
	case Rate1_2:
		return m.NCBPS() / 2
	case Rate2_3:
		return m.NCBPS() * 2 / 3
	case Rate3_4:
		return m.NCBPS() * 3 / 4
	default:
		return 0
	}
}

// String returns e.g. "24 Mbps (16-QAM, rate 1/2)".
func (m Mode) String() string {
	return fmt.Sprintf("%d Mbps (%s, rate %s)", m.RateMbps, m.Modulation, m.CodeRate)
}

// Modes lists all eight clause-17 rates in ascending order. The RATE field
// encodings follow IEEE Std 802.11a-1999 table 80.
var Modes = []Mode{
	{6, BPSK, Rate1_2, 0b1101},
	{9, BPSK, Rate3_4, 0b1111},
	{12, QPSK, Rate1_2, 0b0101},
	{18, QPSK, Rate3_4, 0b0111},
	{24, QAM16, Rate1_2, 0b1001},
	{36, QAM16, Rate3_4, 0b1011},
	{48, QAM64, Rate2_3, 0b0001},
	{54, QAM64, Rate3_4, 0b0011},
}

// ModeByRate returns the mode for the given nominal rate in Mbps.
func ModeByRate(mbps int) (Mode, error) {
	for _, m := range Modes {
		if m.RateMbps == mbps {
			return m, nil
		}
	}
	return Mode{}, fmt.Errorf("phy: no 802.11a mode with rate %d Mbps", mbps)
}

// ModeByRateBits returns the mode for a decoded 4-bit RATE field.
func ModeByRateBits(bits byte) (Mode, error) {
	for _, m := range Modes {
		if m.RateBits == bits {
			return m, nil
		}
	}
	return Mode{}, fmt.Errorf("phy: invalid RATE field %04b", bits)
}

// Standard describes one row of the paper's Table 1 (IEEE WLAN standards).
type Standard struct {
	Approval  int       // year of approval (0 for "expected")
	Name      string    // e.g. "802.11a"
	BandGHz   float64   // frequency band in GHz
	RatesMbps []float64 // supported data rates, descending
}

// StandardsTable reproduces Table 1 of the paper.
var StandardsTable = []Standard{
	{1997, "802.11", 2.4, []float64{2, 1}},
	{1999, "802.11a", 5.2, []float64{54, 48, 36, 24, 18, 12, 9, 6}},
	{1999, "802.11b", 2.4, []float64{11, 5.5, 2, 1}},
	{0, "802.11g", 2.4, []float64{54, 48, 36, 24, 18, 12, 9, 6, 5.5, 2, 1}},
}
