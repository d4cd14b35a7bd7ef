package phy

import (
	"bytes"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based invariants over the PHY's core data transforms, driven by
// testing/quick.

// randomBits returns n pseudo-random bits from the given source.
func randomBits(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Intn(2))
	}
	return out
}

func TestPropertyInterleaveRoundTripAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	f := func(modeIdx uint8, seed int64) bool {
		mode := Modes[int(modeIdx)%len(Modes)]
		rng.Seed(seed)
		in := randomBits(rng, mode.NCBPS())
		inter, err := Interleave(in, mode)
		if err != nil {
			return false
		}
		out, err := Deinterleave(inter, mode)
		if err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInterleavePreservesMultiset(t *testing.T) {
	// Interleaving permutes: the number of ones is invariant.
	rng := rand.New(rand.NewSource(41))
	f := func(modeIdx uint8, seed int64) bool {
		mode := Modes[int(modeIdx)%len(Modes)]
		rng.Seed(seed)
		in := randomBits(rng, mode.NCBPS())
		inter, err := Interleave(in, mode)
		if err != nil {
			return false
		}
		ones := func(b []byte) int {
			n := 0
			for _, v := range b {
				n += int(v)
			}
			return n
		}
		return ones(in) == ones(inter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMapDemapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mods := []Modulation{BPSK, QPSK, QAM16, QAM64}
	f := func(mIdx uint8, seed int64) bool {
		m := mods[int(mIdx)%len(mods)]
		rng.Seed(seed)
		in := randomBits(rng, m.BitsPerSymbol()*16)
		syms, err := MapBits(in, m)
		if err != nil {
			return false
		}
		out, err := DemapHardAppend(nil, syms, m)
		if err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOFDMSymbolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64, symIdx uint8) bool {
		rng.Seed(seed)
		data, err := MapBits(randomBits(rng, 48*2), QPSK)
		if err != nil {
			return false
		}
		spec, err := AssembleSpectrum(data, int(symIdx))
		if err != nil {
			return false
		}
		td, err := ModulateSymbol(spec)
		if err != nil {
			return false
		}
		back, err := DemodulateSymbolInto(nil, td)
		if err != nil {
			return false
		}
		got, err := ExtractDataInto(nil, back)
		if err != nil {
			return false
		}
		for i := range data {
			if cmplx.Abs(got[i]-data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPunctureLengths(t *testing.T) {
	// For any input length that is a multiple of 12 (after encoding), the
	// punctured lengths follow the exact rate ratios.
	rng := rand.New(rand.NewSource(44))
	f := func(blocks uint8, seed int64) bool {
		n := (int(blocks)%20 + 1) * 6 // data bits, multiple of 6
		rng.Seed(seed)
		coded := ConvolutionalEncode(randomBits(rng, n)) // 12*blocks bits
		for _, rate := range []CodeRate{Rate1_2, Rate2_3, Rate3_4} {
			p, err := PunctureAppend(nil, coded, rate)
			if err != nil {
				return false
			}
			if len(p) != CodedLength(n, rate) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyConvolutionalCodeLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := func(seed int64, n uint8) bool {
		rng.Seed(seed)
		length := int(n)%96 + 8
		a := randomBits(rng, length)
		b := randomBits(rng, length)
		sum := make([]byte, length)
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		ea, eb, es := ConvolutionalEncode(a), ConvolutionalEncode(b), ConvolutionalEncode(sum)
		for i := range es {
			if es[i] != ea[i]^eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFrameLengthFormula(t *testing.T) {
	// For any rate and PSDU length, the frame sample count follows the
	// clause-17 duration formula.
	rng := rand.New(rand.NewSource(46))
	f := func(modeIdx uint8, lenSeed uint16) bool {
		mode := Modes[int(modeIdx)%len(Modes)]
		psduLen := int(lenSeed)%1000 + 1
		tx := &Transmitter{Mode: mode, ScramblerSeed: byte(1 + rng.Intn(127))}
		frame, err := tx.Transmit(make([]byte, psduLen))
		if err != nil {
			return false
		}
		nBits := ServiceBits + psduLen*8 + TailBits
		nSym := (nBits + mode.NDBPS() - 1) / mode.NDBPS()
		want := PreambleLen + SymbolLen*(1+nSym)
		return len(frame.Samples) == want && frame.NumDataSymbols == nSym
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertySignalFieldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := func(modeIdx uint8, lenSeed uint16) bool {
		mode := Modes[int(modeIdx)%len(Modes)]
		length := int(lenSeed)%4095 + 1
		_ = rng
		sym, err := EncodeSignal(mode, length)
		if err != nil {
			return false
		}
		spec, err := DemodulateSymbolInto(nil, sym)
		if err != nil {
			return false
		}
		data, err := ExtractDataInto(nil, spec)
		if err != nil {
			return false
		}
		sf, err := NewPacketDecoder().DecodeSignal(data)
		if err != nil {
			return false
		}
		return sf.Mode.RateMbps == mode.RateMbps && sf.Length == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScramblerSeedRecovery(t *testing.T) {
	f := func(seed byte) bool {
		s := NewScrambler(seed)
		first7 := make([]byte, 7)
		for i := range first7 {
			first7[i] = s.NextBit()
		}
		rec := recoverScramblerSeed(first7)
		// The recovered seed must regenerate the same sequence (the seed
		// value itself is canonical up to the zero-seed remap).
		s2 := NewScrambler(rec)
		for _, want := range first7 {
			if s2.NextBit() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
