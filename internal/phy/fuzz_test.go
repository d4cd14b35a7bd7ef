package phy

import (
	"bytes"
	"testing"
)

// Fuzz targets for the two clause-17 bit permutations whose inverses the
// receiver depends on. Seed corpora are checked in under
// testdata/fuzz/<FuzzName>/; scripts/check.sh runs each target for a short
// fixed duration on top of the seed-corpus replay that plain `go test`
// already performs.

// FuzzScramblerRoundTrip checks that descrambling with the same 7-bit seed
// restores any payload (scrambling is an XOR with the LFSR stream), and
// that the LFSR never emits from the degenerate all-zero state.
func FuzzScramblerRoundTrip(f *testing.F) {
	f.Add(byte(0x7F), []byte{})
	f.Add(byte(1), []byte{0, 1, 1, 0, 1})
	f.Add(byte(0), []byte("seed 0 must alias to 0x7F"))
	f.Add(byte(0xAA), bytes.Repeat([]byte{1}, 200))
	f.Fuzz(func(t *testing.T, seedBits byte, payload []byte) {
		// The scrambler operates on bits; fold arbitrary fuzz bytes onto
		// {0,1} like the transmitter's bit vectors.
		bits := make([]byte, len(payload))
		for i, b := range payload {
			bits[i] = b & 1
		}
		orig := append([]byte(nil), bits...)

		scrambled := NewScrambler(seedBits).Process(bits)
		for i, b := range scrambled {
			if b > 1 {
				t.Fatalf("bit %d scrambled to %d", i, b)
			}
		}
		restored := NewScrambler(seedBits).Process(scrambled)
		if !bytes.Equal(restored, orig) {
			t.Fatalf("seed %#x: round trip changed payload", seedBits)
		}

		// The LFSR sequence itself must be 127-periodic and never stuck:
		// any window of 127 outputs contains both symbols.
		s := NewScrambler(seedBits)
		var ones int
		for i := 0; i < 127; i++ {
			ones += int(s.NextBit())
		}
		if ones == 0 || ones == 127 {
			t.Fatalf("seed %#x: degenerate scrambling sequence (%d ones in a period)", seedBits, ones)
		}
	})
}

// FuzzInterleaverRoundTrip checks for every mode that Deinterleave inverts
// Interleave (and the soft-metric deinterleaver agrees with the hard one),
// and that both reject wrong symbol sizes.
func FuzzInterleaverRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{1, 0, 1, 1})
	f.Add(uint8(7), bytes.Repeat([]byte{0, 1}, 144))
	f.Add(uint8(200), []byte("arbitrary"))
	f.Fuzz(func(t *testing.T, modeIdx uint8, data []byte) {
		mode := Modes[int(modeIdx)%len(Modes)]
		ncbps := mode.NCBPS()

		// Wrong lengths must error, not permute out of bounds.
		if len(data) != ncbps {
			if _, err := Interleave(data, mode); err == nil {
				t.Fatalf("%s: accepted %d bits, want %d", mode, len(data), ncbps)
			}
			if _, err := Deinterleave(data, mode); err == nil {
				t.Fatalf("%s: deinterleaver accepted %d bits", mode, len(data))
			}
		}

		// Build one full symbol from the fuzz data (cyclic fill).
		bits := make([]byte, ncbps)
		for i := range bits {
			if len(data) > 0 {
				bits[i] = data[i%len(data)] & 1
			}
		}
		tx, err := Interleave(bits, mode)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := Deinterleave(tx, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rx, bits) {
			t.Fatalf("%s: interleaver round trip changed the symbol", mode)
		}

		// Interleaving must be a permutation: same multiset of bits.
		var sumIn, sumOut int
		for i := range bits {
			sumIn += int(bits[i])
			sumOut += int(tx[i])
		}
		if sumIn != sumOut {
			t.Fatalf("%s: interleaver dropped/duplicated bits (%d vs %d ones)", mode, sumIn, sumOut)
		}

		// The soft deinterleaver applies the same inverse permutation.
		soft := make([]float64, ncbps)
		for i, b := range tx {
			soft[i] = float64(b)*2 - 1
		}
		softOut, err := DeinterleaveSoftInto(nil, soft, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := range softOut {
			want := float64(bits[i])*2 - 1
			if softOut[i] != want {
				t.Fatalf("%s: soft deinterleaver disagrees with hard at %d", mode, i)
			}
		}
	})
}
