package measure

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wlansim/internal/bits"
	"wlansim/internal/phy"
)

func TestBERCounterBasics(t *testing.T) {
	var c BERCounter
	c.AddPacket([]byte{0, 1, 0, 1}, []byte{0, 1, 0, 1})
	c.AddPacket([]byte{0, 1, 0, 1}, []byte{1, 1, 0, 1})
	if c.Bits != 8 || c.Errors != 1 {
		t.Errorf("bits/errors = %d/%d", c.Bits, c.Errors)
	}
	if c.BER() != 0.125 {
		t.Errorf("BER %v", c.BER())
	}
	if c.PER() != 0.5 {
		t.Errorf("PER %v", c.PER())
	}
	if !strings.Contains(c.String(), "BER") {
		t.Error("String() malformed")
	}
}

func TestBERCounterLengthMismatchCountsErrors(t *testing.T) {
	var c BERCounter
	c.AddPacket([]byte{0, 0, 0, 0}, []byte{0, 0})
	if c.Errors != 2 {
		t.Errorf("missing bits counted as %d errors, want 2", c.Errors)
	}
}

func TestBERCounterLostPacket(t *testing.T) {
	var c BERCounter
	c.AddLostPacket(100)
	if c.BER() != 0.5 || c.PER() != 1 || c.LostPackets != 1 {
		t.Errorf("lost packet accounting wrong: %v", c.String())
	}
}

func TestBERCounterEmpty(t *testing.T) {
	var c BERCounter
	if c.BER() != 0 || c.PER() != 0 {
		t.Error("empty counter should report 0")
	}
	lo, hi := c.ConfidenceInterval95()
	if lo != 0 || hi != 0 {
		t.Error("empty confidence interval should be zero")
	}
}

func TestConfidenceIntervalBracketsTruth(t *testing.T) {
	// Simulate a known BER of 0.01 and verify the interval contains it.
	r := rand.New(rand.NewSource(1))
	var c BERCounter
	for p := 0; p < 100; p++ {
		ref := make([]byte, 1000)
		got := make([]byte, 1000)
		for i := range got {
			if r.Float64() < 0.01 {
				got[i] = 1
			}
		}
		c.AddPacket(ref, got)
	}
	lo, hi := c.ConfidenceInterval95()
	if lo > 0.01 || hi < 0.01 {
		t.Errorf("interval [%v, %v] misses the true BER 0.01 (est %v)", lo, hi, c.BER())
	}
	if hi-lo > 0.005 {
		t.Errorf("interval [%v, %v] too wide for 1e5 bits", lo, hi)
	}
}

func TestEVMZeroForPerfectPoints(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	raw := bits.FromBytes(bits.RandomBytes(r, 48*4/8))
	syms, _ := phy.MapBits(raw, phy.QAM16)
	res, err := EVM([][]complex128{syms}, phy.QAM16)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMS != 0 || res.Peak != 0 {
		t.Errorf("perfect constellation EVM %v", res)
	}
	if !math.IsInf(res.DB(), -1) {
		t.Error("zero EVM should be -Inf dB")
	}
	if res.Symbols != 48 {
		t.Errorf("symbols %d", res.Symbols)
	}
}

func TestEVMKnownOffset(t *testing.T) {
	// Shift every QPSK point by 0.1 radially: EVM = 0.1 (10%).
	raw := []byte{0, 0, 1, 1, 0, 1, 1, 0}
	syms, _ := phy.MapBits(raw, phy.QPSK)
	for i := range syms {
		syms[i] += complex(0.08, 0.06) // |offset| = 0.1
	}
	res, err := EVM([][]complex128{syms}, phy.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RMS-0.1) > 1e-12 {
		t.Errorf("EVM %v, want 0.1", res.RMS)
	}
	if math.Abs(res.Percent()-10) > 1e-9 {
		t.Errorf("percent %v", res.Percent())
	}
	if math.Abs(res.DB()+20) > 1e-9 {
		t.Errorf("dB %v, want -20", res.DB())
	}
}

func TestEVMEmptyInput(t *testing.T) {
	if _, err := EVM(nil, phy.QPSK); err == nil {
		t.Error("accepted empty carrier list")
	}
}

func TestSeriesOperations(t *testing.T) {
	s := &Series{Label: "test"}
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 5)
	if s.Points[0].X != 1 || s.Points[2].X != 3 {
		t.Errorf("series not sorted: %+v", s.Points)
	}
	if m := s.Min(); m.X != 2 || m.Y != 5 {
		t.Errorf("Min = %+v", m)
	}
	if y, ok := s.YAt(2); !ok || y != 5 {
		t.Errorf("YAt(2) = %v, %v", y, ok)
	}
	if _, ok := s.YAt(9); ok {
		t.Error("YAt(9) should not exist")
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{Title: "Figure X"}
	a := f.AddSeries("with", "x", "ber")
	b := f.AddSeries("without", "x", "ber")
	a.Add(1, 0.5)
	a.Add(2, 0.1)
	b.Add(1, 0.01)
	out := f.String()
	for _, want := range []string{"Figure X", "with", "without", "0.5", "0.01", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	empty := &Figure{Title: "empty"}
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty figure should still render its title")
	}
}

func TestSpectrumAnalyzeAndChannelPowers(t *testing.T) {
	// Two noise-like channels at 0 and +20 MHz with 16 dB offset.
	r := rand.New(rand.NewSource(3))
	fs := 80e6
	n := 1 << 14
	x := make([]complex128, n)
	for i := range x {
		// Wanted: white-ish noise scaled to land mostly in-band after the
		// composite — for this unit test we only need total power ratios,
		// so use narrowband tones instead.
		ph1 := 2 * math.Pi * 1e6 * float64(i) / fs
		ph2 := 2 * math.Pi * 20e6 * float64(i) / fs
		a1 := 1e-3
		a2 := a1 * math.Pow(10, 16.0/20)
		x[i] = complex(a1*math.Cos(ph1), a1*math.Sin(ph1)) +
			complex(a2*math.Cos(ph2), a2*math.Sin(ph2)) +
			complex(r.NormFloat64(), r.NormFloat64())*1e-9
	}
	sp := NewSpectrum()
	psd, err := sp.Analyze(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	rep := ChannelPowers(psd)
	if d := rep.AdjacentDBm - rep.WantedDBm; math.Abs(d-16) > 0.5 {
		t.Errorf("adjacent offset %v dB, want 16", d)
	}
	if rep.SecondAdjacentDBm > rep.WantedDBm-30 {
		t.Errorf("second adjacent %v dBm should be near the noise floor", rep.SecondAdjacentDBm)
	}
	if !strings.Contains(rep.String(), "adjacent") {
		t.Error("report String() malformed")
	}
	// Series conversion respects the center offset and decimation.
	ser := SeriesDBm(psd, 5.2e9, 128)
	if len(ser.Points) > 140 {
		t.Errorf("series not decimated: %d points", len(ser.Points))
	}
	if ser.Points[0].X < 5.1e9 {
		t.Errorf("center offset not applied: first X %v", ser.Points[0].X)
	}
}

func TestSpectrumShrinksSegmentForShortInput(t *testing.T) {
	sp := NewSpectrum()
	x := make([]complex128, 300)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	if _, err := sp.Analyze(x, 1e6); err != nil {
		t.Errorf("short input not handled: %v", err)
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := &Figure{Title: "fig"}
	a := f.AddSeries("with", "cp", "ber")
	b := f.AddSeries("without", "cp", "ber")
	a.Add(1, 0.5)
	a.Add(2, 0.1)
	b.Add(2, 0.01)
	var buf strings.Builder
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines %v", lines)
	}
	if lines[0] != "cp,with,without" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "1,0.5," {
		t.Errorf("row 1 %q (missing cell should be empty)", lines[1])
	}
	if lines[2] != "2,0.1,0.01" {
		t.Errorf("row 2 %q", lines[2])
	}
}

func TestPAPRCCDF(t *testing.T) {
	// A constant-envelope signal has all window PAPRs at 0 dB: the CCDF
	// drops from 1 immediately.
	n := 8000
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	s, err := PAPRCCDF(x, 80)
	if err != nil {
		t.Fatal(err)
	}
	if y, ok := s.YAt(0); !ok || y != 1 {
		t.Errorf("CCDF(0) = %v, want 1", y)
	}
	for _, p := range s.Points {
		if p.X > 1 && p.Y > 0 {
			t.Errorf("constant envelope shows PAPR above %v dB with probability %v", p.X, p.Y)
		}
	}

	// Gaussian-like OFDM envelope: CCDF decreasing, nonzero mass above 6 dB.
	r := rand.New(rand.NewSource(4))
	g := make([]complex128, n)
	for i := range g {
		g[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	s2, err := PAPRCCDF(g, 80)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, p := range s2.Points {
		if p.Y > prev+1e-12 {
			t.Errorf("CCDF not non-increasing at %v", p.X)
		}
		prev = p.Y
	}
	if y, _ := s2.YAt(6); y <= 0 || y >= 0.9 {
		t.Errorf("CCDF(6 dB) = %v for Gaussian envelope", y)
	}

	if _, err := PAPRCCDF(x, 0); err == nil {
		t.Error("accepted zero window")
	}
	if _, err := PAPRCCDF(x[:10], 80); err == nil {
		t.Error("accepted too-short signal")
	}
	if _, err := PAPRCCDF(make([]complex128, 200), 80); err == nil {
		t.Error("accepted zero-power signal")
	}
}

// AddSeries appends and returns a new series.
func (f *Figure) AddSeries(label, xLabel, yLabel string) *Series {
	s := &Series{Label: label, XLabel: xLabel, YLabel: yLabel}
	f.Series = append(f.Series, s)
	return s
}
