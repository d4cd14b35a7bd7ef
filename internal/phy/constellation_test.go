package phy

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestMapBitsKnownPoints(t *testing.T) {
	// BPSK: 0 -> -1, 1 -> +1.
	s, err := MapBits([]byte{0, 1}, BPSK)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != -1 || s[1] != 1 {
		t.Errorf("BPSK points %v", s)
	}
	// QPSK: bits (b0,b1) = (0,0) -> (-1-j)/sqrt2.
	s, _ = MapBits([]byte{0, 0, 1, 1}, QPSK)
	k := 1 / math.Sqrt(2)
	if cmplx.Abs(s[0]-complex(-k, -k)) > 1e-15 {
		t.Errorf("QPSK 00 = %v", s[0])
	}
	if cmplx.Abs(s[1]-complex(k, k)) > 1e-15 {
		t.Errorf("QPSK 11 = %v", s[1])
	}
	// 16-QAM per clause 17.3.5.7: the I-axis bit string "b0 b1" (first
	// transmitted bit first) maps 10 -> +3, so bits 1,0,1,0 hit (+3,+3).
	s, _ = MapBits([]byte{1, 0, 1, 0}, QAM16)
	k16 := 1 / math.Sqrt(10)
	if cmplx.Abs(s[0]-complex(3*k16, 3*k16)) > 1e-12 {
		t.Errorf("16-QAM 1010 = %v, want (3+3j)/sqrt10", s[0])
	}
	// 64-QAM: all-ones -> I=Q=+3/sqrt42 (gray code 111 -> 3).
	s, _ = MapBits([]byte{1, 1, 1, 1, 1, 1}, QAM64)
	k64 := 1 / math.Sqrt(42)
	if cmplx.Abs(s[0]-complex(3*k64, 3*k64)) > 1e-12 {
		t.Errorf("64-QAM 111111 = %v, want (3+3j)/sqrt42", s[0])
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		tab := tables[m]
		var e float64
		for _, p := range tab.points {
			e += real(p)*real(p) + imag(p)*imag(p)
		}
		e /= float64(len(tab.points))
		if math.Abs(e-1) > 1e-12 {
			t.Errorf("%v: mean energy %v, want 1", m, e)
		}
	}
}

func TestGrayMappingAdjacency(t *testing.T) {
	// Gray property: nearest horizontal/vertical neighbors differ in
	// exactly one bit.
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		tab := tables[m]
		minDist := math.Inf(1)
		for i := range tab.points {
			for j := i + 1; j < len(tab.points); j++ {
				if d := cmplx.Abs(tab.points[i] - tab.points[j]); d < minDist {
					minDist = d
				}
			}
		}
		for i := range tab.points {
			for j := i + 1; j < len(tab.points); j++ {
				d := cmplx.Abs(tab.points[i] - tab.points[j])
				if d < minDist*1.0001 {
					diff := tab.labels[i] ^ tab.labels[j]
					if popcount(diff) != 1 {
						t.Errorf("%v: neighbors %06b and %06b differ in %d bits",
							m, tab.labels[i], tab.labels[j], popcount(diff))
					}
				}
			}
		}
	}
}

func popcount(v int) int {
	n := 0
	for v != 0 {
		n += v & 1
		v >>= 1
	}
	return n
}

func TestMapDemapRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		in := randomBits(r, m.BitsPerSymbol()*100)
		syms, err := MapBits(in, m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DemapHardAppend(nil, syms, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, out) {
			t.Errorf("%v: hard round trip failed", m)
		}
	}
}

func TestDemapHardWithNoise(t *testing.T) {
	// Small noise (well inside half the decision distance) must not cause
	// errors.
	r := rand.New(rand.NewSource(2))
	in := randomBits(r, 6*200)
	syms, _ := MapBits(in, QAM64)
	for i := range syms {
		syms[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(0.02, 0)
	}
	out, _ := DemapHardAppend(nil, syms, QAM64)
	if !bytes.Equal(in, out) {
		t.Error("bit errors under tiny noise")
	}
}

func TestDemapSoftSignsMatchHard(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		in := randomBits(r, m.BitsPerSymbol()*64)
		syms, _ := MapBits(in, m)
		soft, err := DemapSoftAppend(nil, syms, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range in {
			// Positive soft metric means bit 0.
			if b == 0 && soft[i] <= 0 {
				t.Fatalf("%v: bit %d is 0 but metric %v", m, i, soft[i])
			}
			if b == 1 && soft[i] >= 0 {
				t.Fatalf("%v: bit %d is 1 but metric %v", m, i, soft[i])
			}
		}
	}
}

func TestDemapSoftCSIWeighting(t *testing.T) {
	syms, _ := MapBits([]byte{0, 1}, BPSK)
	soft, err := DemapSoftAppend(nil, syms, BPSK, []float64{2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(soft[0]) <= math.Abs(soft[1])*2 {
		t.Errorf("CSI weighting not applied: %v", soft)
	}
	if _, err := DemapSoftAppend(nil, syms, BPSK, []float64{1}); err == nil {
		t.Error("accepted mismatched CSI length")
	}
}

func TestMapBitsValidation(t *testing.T) {
	if _, err := MapBits([]byte{1}, QPSK); err == nil {
		t.Error("accepted length not multiple of bits/symbol")
	}
	if _, err := MapBits([]byte{1}, Modulation(9)); err == nil {
		t.Error("accepted unknown modulation")
	}
	if _, err := DemapHardAppend(nil, nil, Modulation(9)); err == nil {
		t.Error("accepted unknown modulation")
	}
	if _, err := DemapSoftAppend(nil, nil, Modulation(9), nil); err == nil {
		t.Error("accepted unknown modulation")
	}
}

func TestModeTables(t *testing.T) {
	// Clause 17 table 78 values.
	cases := []struct {
		mbps, nbpsc, ncbps, ndbps int
	}{
		{6, 1, 48, 24}, {9, 1, 48, 36}, {12, 2, 96, 48}, {18, 2, 96, 72},
		{24, 4, 192, 96}, {36, 4, 192, 144}, {48, 6, 288, 192}, {54, 6, 288, 216},
	}
	for _, c := range cases {
		m, err := ModeByRate(c.mbps)
		if err != nil {
			t.Fatal(err)
		}
		if m.NBPSC() != c.nbpsc || m.NCBPS() != c.ncbps || m.NDBPS() != c.ndbps {
			t.Errorf("%d Mbps: NBPSC/NCBPS/NDBPS = %d/%d/%d, want %d/%d/%d",
				c.mbps, m.NBPSC(), m.NCBPS(), m.NDBPS(), c.nbpsc, c.ncbps, c.ndbps)
		}
	}
	if _, err := ModeByRate(7); err == nil {
		t.Error("accepted bogus rate")
	}
	if _, err := ModeByRateBits(0b0000); err == nil {
		t.Error("accepted bogus RATE bits")
	}
	for _, m := range Modes {
		got, err := ModeByRateBits(m.RateBits)
		if err != nil || got.RateMbps != m.RateMbps {
			t.Errorf("RateBits round trip failed for %v", m)
		}
	}
}

func TestStandardsTable(t *testing.T) {
	if len(StandardsTable) != 4 {
		t.Fatalf("standards table has %d rows, want 4", len(StandardsTable))
	}
	var a *Standard
	for i := range StandardsTable {
		if StandardsTable[i].Name == "802.11a" {
			a = &StandardsTable[i]
		}
	}
	if a == nil {
		t.Fatal("802.11a missing")
	}
	if a.BandGHz != 5.2 || a.RatesMbps[0] != 54 || a.Approval != 1999 {
		t.Errorf("802.11a row wrong: %+v", a)
	}
	// Every clause-17 mode appears in the standards row.
	for _, m := range Modes {
		found := false
		for _, r := range a.RatesMbps {
			if r == float64(m.RateMbps) {
				found = true
			}
		}
		if !found {
			t.Errorf("rate %d missing from standards table", m.RateMbps)
		}
	}
}

func TestTXTimeKnownValues(t *testing.T) {
	// Clause 17.4.3 example: 100-octet PSDU at 24 Mbps ->
	// ceil((16+800+6)/96) = 9 symbols -> 16+4+36 = 56 us.
	m24, _ := ModeByRate(24)
	tx := &Transmitter{Mode: m24}
	frame, err := tx.Transmit(make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumDataSymbols != 9 {
		t.Errorf("24 Mbps 100-octet symbols %d, want 9", frame.NumDataSymbols)
	}
	if want := int(56e-6 * SampleRate); len(frame.Samples) != want {
		t.Errorf("frame %d samples, TXTIME of 56 us implies %d", len(frame.Samples), want)
	}
}
