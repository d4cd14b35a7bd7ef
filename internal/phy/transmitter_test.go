package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"wlansim/internal/bits"
)

func TestSignalFieldRoundTrip(t *testing.T) {
	for _, mode := range Modes {
		for _, length := range []int{1, 100, 2047, 4095} {
			sym, err := EncodeSignal(mode, length)
			if err != nil {
				t.Fatal(err)
			}
			if len(sym) != SymbolLen {
				t.Fatalf("SIGNAL symbol length %d", len(sym))
			}
			spec, err := DemodulateSymbolInto(nil, sym)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := ExtractDataInto(nil, spec)
			sf, err := NewPacketDecoder().DecodeSignal(data)
			if err != nil {
				t.Fatalf("%v len %d: %v", mode, length, err)
			}
			if sf.Mode.RateMbps != mode.RateMbps || sf.Length != length {
				t.Errorf("decoded %v/%d, want %v/%d", sf.Mode, sf.Length, mode, length)
			}
		}
	}
}

func TestSignalFieldValidation(t *testing.T) {
	if _, err := EncodeSignal(Modes[0], 0); err == nil {
		t.Error("accepted zero length")
	}
	if _, err := EncodeSignal(Modes[0], 4096); err == nil {
		t.Error("accepted oversized length")
	}
	// Corrupt parity: flip one data carrier hard enough and the decoder
	// must flag either parity or rate errors for most corruptions. Build a
	// deliberately invalid SIGNAL content: all-zero carriers decode to
	// RATE=0000 which is invalid.
	zero := make([]complex128, 48)
	for i := range zero {
		zero[i] = -1 // all bits 0
	}
	if _, err := NewPacketDecoder().DecodeSignal(zero); err == nil {
		t.Error("accepted all-zero SIGNAL field")
	}
}

func TestSignalSymbolIsBPSK(t *testing.T) {
	sym, _ := EncodeSignal(Modes[4], 256)
	spec, _ := DemodulateSymbolInto(nil, sym)
	data, _ := ExtractDataInto(nil, spec)
	for i, v := range data {
		if imag(v) > 1e-9 || imag(v) < -1e-9 {
			t.Fatalf("SIGNAL carrier %d has imaginary part %v", i, v)
		}
	}
}

// TestDataFieldBitsLayout checks the DATA field bit stream Transmit
// assembles: SERVICE + PSDU + tail + pad, scrambled.
func TestDataFieldBitsLayout(t *testing.T) {
	psdu := []byte{0xA5, 0x3C}
	tx := &Transmitter{Mode: Modes[0], ScramblerSeed: 0x11} // NDBPS 24
	frame, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	stream := tx.stream
	// 16 service + 16 payload + 6 tail = 38 -> 2 symbols of 24 = 48 bits.
	if frame.NumDataSymbols != 2 || len(stream) != 48 {
		t.Fatalf("nSym=%d len=%d", frame.NumDataSymbols, len(stream))
	}
	// Descrambling restores service zeros and payload.
	buf := append([]byte(nil), stream...)
	// Tail bits were zeroed post-scrambling; descramble only the part
	// before the tail for comparison.
	NewScrambler(0x11).Process(buf)
	for i := 0; i < ServiceBits; i++ {
		if buf[i] != 0 {
			t.Errorf("service bit %d = %d after descrambling", i, buf[i])
		}
	}
	if !bytes.Equal(buf[ServiceBits:ServiceBits+16], bits.FromBytes(psdu)) {
		t.Error("payload corrupted by scrambling")
	}
}

func TestTransmitFrameGeometry(t *testing.T) {
	for _, mode := range Modes {
		tx := &Transmitter{Mode: mode, ScramblerSeed: 0x2A}
		psdu := make([]byte, 100)
		frame, err := tx.Transmit(psdu)
		if err != nil {
			t.Fatal(err)
		}
		nBits := ServiceBits + len(psdu)*8 + TailBits
		wantSym := (nBits + mode.NDBPS() - 1) / mode.NDBPS()
		if frame.NumDataSymbols != wantSym {
			t.Errorf("%v: %d symbols, want %d", mode, frame.NumDataSymbols, wantSym)
		}
		wantLen := PreambleLen + SymbolLen*(1+wantSym)
		if len(frame.Samples) != wantLen {
			t.Errorf("%v: %d samples, want %d", mode, len(frame.Samples), wantLen)
		}
	}
}

func TestTransmitValidation(t *testing.T) {
	tx, err := NewTransmitter(24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Transmit(nil); err == nil {
		t.Error("accepted empty PSDU")
	}
	if _, err := tx.Transmit(make([]byte, 4096)); err == nil {
		t.Error("accepted oversized PSDU")
	}
	if _, err := NewTransmitter(13); err == nil {
		t.Error("accepted invalid rate")
	}
}

// decodeFrameIdeal demodulates a frame with perfect timing knowledge,
// exercising the full bit pipeline without the synchronizing receiver.
func decodeFrameIdeal(t *testing.T, frame *Frame) []byte {
	t.Helper()
	start := PreambleLen + SymbolLen // skip preamble and SIGNAL
	var carriers [][]complex128
	for n := 0; n < frame.NumDataSymbols; n++ {
		sym := frame.Samples[start+n*SymbolLen : start+(n+1)*SymbolLen]
		spec, err := DemodulateSymbolInto(nil, sym)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ExtractDataInto(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		carriers = append(carriers, data)
	}
	psdu, err := NewPacketDecoder().DecodeDataCarriers(carriers, nil, frame.Mode, len(frame.PSDU))
	if err != nil {
		t.Fatal(err)
	}
	return psdu
}

func TestTransmitDecodeLoopbackAllModes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, mode := range Modes {
		tx := &Transmitter{Mode: mode, ScramblerSeed: byte(1 + r.Intn(127))}
		psdu := bits.RandomBytes(r, 1+r.Intn(300))
		frame, err := tx.Transmit(psdu)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeFrameIdeal(t, frame)
		if len(got) != len(psdu) {
			t.Fatalf("%v: decoded %d bytes, want %d", mode, len(got), len(psdu))
		}
		for i := range psdu {
			if got[i] != psdu[i] {
				t.Fatalf("%v: byte %d differs", mode, i)
			}
		}
	}
}

func TestTransmitDecodeLoopbackAllSeeds(t *testing.T) {
	// Scrambler seed recovery must work for every seed.
	psdu := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for seed := byte(1); seed < 128; seed += 11 {
		tx := &Transmitter{Mode: Modes[2], ScramblerSeed: seed}
		frame, err := tx.Transmit(psdu)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeFrameIdeal(t, frame)
		if !bytes.Equal(got, psdu) {
			t.Fatalf("seed %#x: loopback failed", seed)
		}
	}
}

func TestDefaultScramblerSeed(t *testing.T) {
	tx := &Transmitter{Mode: Modes[0]}
	frame, err := tx.Transmit([]byte{0xFF})
	if err != nil {
		t.Fatal(err)
	}
	if frame.ScramblerSeed == 0 {
		t.Error("zero scrambler seed not remapped")
	}
}

func TestDecodeDataCarriersValidation(t *testing.T) {
	if _, err := NewPacketDecoder().DecodeDataCarriers(nil, nil, Modes[0], 0); err == nil {
		t.Error("accepted zero psduLen")
	}
	if _, err := NewPacketDecoder().DecodeDataCarriers(nil, nil, Modes[0], 10); err == nil {
		t.Error("accepted empty carriers for nonzero PSDU")
	}
}
