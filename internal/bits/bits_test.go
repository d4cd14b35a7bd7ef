package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBytesLSBFirst(t *testing.T) {
	got := FromBytes([]byte{0x01, 0x80})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(got, want) {
		t.Errorf("FromBytes = %v, want %v", got, want)
	}
}

func TestToBytesRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		back, err := ToBytes(FromBytes(data))
		if err != nil {
			return false
		}
		if len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToBytesValidation(t *testing.T) {
	if _, err := ToBytes(make([]byte, 7)); err == nil {
		t.Error("accepted non-multiple-of-8 length")
	}
	if _, err := ToBytes([]byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("accepted non-bit value")
	}
}

func TestParity(t *testing.T) {
	if Parity([]byte{1, 1, 0}) != 0 {
		t.Error("even ones should give parity 0")
	}
	if Parity([]byte{1, 0, 0}) != 1 {
		t.Error("odd ones should give parity 1")
	}
	if Parity(nil) != 0 {
		t.Error("empty parity should be 0")
	}
}

func TestUintLSBRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return uint16(ParseUintLSB(Uint16LSB(v, 16))) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Truncated width keeps only the low bits.
	if got := ParseUintLSB(Uint16LSB(0xABC, 4)); got != 0xC {
		t.Errorf("4-bit field = %#x, want 0xC", got)
	}
}

func TestRandomBits(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := FromBytes(RandomBytes(r, 125))
	if len(b) != 1000 {
		t.Fatalf("length %d", len(b))
	}
	ones := 0
	for _, v := range b {
		if v > 1 {
			t.Fatalf("non-bit value %d", v)
		}
		ones += int(v)
	}
	// Roughly balanced (binomial: 500 +- ~5 sigma).
	if ones < 400 || ones > 600 {
		t.Errorf("ones = %d, expected roughly 500", ones)
	}
}
