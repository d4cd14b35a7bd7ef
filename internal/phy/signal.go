package phy

import (
	"fmt"

	"wlansim/internal/bits"
)

// SignalField is the decoded content of the PLCP SIGNAL symbol.
type SignalField struct {
	Mode   Mode
	Length int // PSDU length in octets (1..4095)
}

// signalBits builds the 24-bit SIGNAL field: RATE(4) + reserved(1) +
// LENGTH(12, LSB first) + parity(1) + tail(6).
func signalBits(mode Mode, length int) ([]byte, error) {
	if length < 1 || length > 4095 {
		return nil, fmt.Errorf("phy: PSDU length %d outside 1..4095", length)
	}
	out := make([]byte, 0, 24)
	for i := 0; i < 4; i++ { // R1..R4: R1 is the MSB of the RateBits value
		out = append(out, (mode.RateBits>>(3-i))&1)
	}
	out = append(out, 0) // reserved
	out = append(out, bits.Uint16LSB(uint16(length), 12)...)
	out = append(out, bits.Parity(out))
	out = append(out, 0, 0, 0, 0, 0, 0) // tail
	return out, nil
}

// EncodeSignal produces the 80-sample SIGNAL OFDM symbol announcing the
// given mode and PSDU length. The SIGNAL symbol is BPSK, rate 1/2, not
// scrambled, and uses pilot polarity p_0.
func EncodeSignal(mode Mode, length int) ([]complex128, error) {
	raw, err := signalBits(mode, length)
	if err != nil {
		return nil, err
	}
	coded := ConvolutionalEncode(raw) // 48 bits
	bpskMode := Modes[0]              // 6 Mbps: BPSK rate 1/2
	inter, err := Interleave(coded, bpskMode)
	if err != nil {
		return nil, err
	}
	syms, err := MapBits(inter, BPSK)
	if err != nil {
		return nil, err
	}
	spec, err := AssembleSpectrum(syms, 0)
	if err != nil {
		return nil, err
	}
	return ModulateSymbol(spec)
}

// DecodeSignal parses the 48 equalized data-carrier values of the SIGNAL
// symbol. It validates the parity bit and the RATE encoding.
func (d *PacketDecoder) DecodeSignal(dataCarriers []complex128) (SignalField, error) {
	var sf SignalField
	soft, err := DemapSoftAppend(d.sym[:0], dataCarriers, BPSK, nil)
	if err != nil {
		return sf, err
	}
	d.sym = soft
	bpskMode := Modes[0]
	deint, err := DeinterleaveSoftInto(d.dep[:0], soft, bpskMode)
	if err != nil {
		return sf, err
	}
	d.dep = deint
	raw, err := d.vit.DecodeSoftInto(d.decoded, deint)
	if err != nil {
		return sf, err
	}
	d.decoded = raw
	if len(raw) != 24 {
		return sf, fmt.Errorf("phy: SIGNAL decoded to %d bits", len(raw))
	}
	if bits.Parity(raw[:18]) != 0 {
		return sf, fmt.Errorf("phy: SIGNAL parity check failed")
	}
	var rate byte
	for i := 0; i < 4; i++ {
		rate |= (raw[i] & 1) << (3 - i)
	}
	mode, err := ModeByRateBits(rate)
	if err != nil {
		return sf, err
	}
	length := int(bits.ParseUintLSB(raw[5:17]))
	if length < 1 {
		return sf, fmt.Errorf("phy: SIGNAL length field %d invalid", length)
	}
	return SignalField{Mode: mode, Length: length}, nil
}
