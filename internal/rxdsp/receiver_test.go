package rxdsp

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
)

// makeFrame builds a test frame with a payload derived from the seed.
func makeFrame(t testing.TB, rateMbps, psduLen int, seed int64) *phy.Frame {
	t.Helper()
	tx, err := phy.NewTransmitter(rateMbps)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	tx.ScramblerSeed = byte(1 + r.Intn(127))
	frame, err := tx.Transmit(bits.RandomBytes(r, psduLen))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// withPadding places the frame after `lead` zero samples and appends a tail.
func withPadding(frame *phy.Frame, lead, tail int) []complex128 {
	out := make([]complex128, lead+len(frame.Samples)+tail)
	copy(out[lead:], frame.Samples)
	return out
}

func TestDetectCleanPreamble(t *testing.T) {
	frame := makeFrame(t, 6, 50, 1)
	x := withPadding(frame, 500, 100)
	d, err := NewDetector().Detect(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.StartIndex < 480 || d.StartIndex > 560 {
		t.Errorf("detected start %d, want ~500", d.StartIndex)
	}
	if math.Abs(d.CoarseCFO) > 1e-4 {
		t.Errorf("coarse CFO %v on clean signal", d.CoarseCFO)
	}
	if d.Metric < 0.9 {
		t.Errorf("plateau metric %v", d.Metric)
	}
}

func TestDetectWithNoiseAndCFO(t *testing.T) {
	frame := makeFrame(t, 12, 100, 2)
	x := withPadding(frame, 300, 100)
	// 200 kHz CFO at 20 MHz = 0.01 cycles/sample.
	channel.NewCFO(200e3, 20e6, 0.3).Process(x)
	channel.AddNoiseSNR(x[300:300+len(frame.Samples)], 15, 3)
	d, err := NewDetector().Detect(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.CoarseCFO-0.01) > 0.001 {
		t.Errorf("coarse CFO %v, want 0.01", d.CoarseCFO)
	}
}

func TestDetectNoSignal(t *testing.T) {
	x := make([]complex128, 2000)
	r := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	if _, err := NewDetector().Detect(x, 0); err == nil {
		t.Error("detected a packet in pure noise")
	}
	if _, err := NewDetector().Detect(x[:10], 0); err == nil {
		t.Error("accepted too-short input")
	}
}

func TestFineTimingExact(t *testing.T) {
	frame := makeFrame(t, 6, 40, 5)
	lead := 777
	x := withPadding(frame, lead, 50)
	wantT1 := lead + phy.ShortPreambleLen + 32
	t1, err := FineTiming(x, wantT1-80, 160)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != wantT1 {
		t.Errorf("fine timing %d, want %d", t1, wantT1)
	}
}

func TestFineCFOAccuracy(t *testing.T) {
	frame := makeFrame(t, 6, 40, 6)
	x := withPadding(frame, 0, 0)
	// Small residual CFO: 30 kHz.
	channel.NewCFO(30e3, 20e6, 0).Process(x)
	got, err := FineCFO(x, phy.ShortPreambleLen+32)
	if err != nil {
		t.Fatal(err)
	}
	want := 30e3 / 20e6
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("fine CFO %v, want %v", got, want)
	}
	if _, err := FineCFO(x, len(x)); err == nil {
		t.Error("accepted out-of-range index")
	}
}

func TestEstimateChannelFlat(t *testing.T) {
	frame := makeFrame(t, 6, 40, 7)
	x := frame.Samples
	est, err := EstimateChannel(x, phy.ShortPreambleLen+32)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect channel: H = 1 on the 52 occupied carriers.
	n := 0
	for _, h := range est.H {
		if h != 0 {
			if math.Abs(real(h)-1) > 1e-9 || math.Abs(imag(h)) > 1e-9 {
				t.Fatalf("flat-channel estimate %v, want 1", h)
			}
			n++
		}
	}
	if n != 52 {
		t.Errorf("%d estimated carriers, want 52", n)
	}
}

func TestEstimateChannelScaled(t *testing.T) {
	frame := makeFrame(t, 6, 40, 8)
	x := dsp.Clone(frame.Samples)
	for i := range x {
		x[i] *= complex(0.5, 0)
	}
	est, err := EstimateChannel(x, phy.ShortPreambleLen+32)
	if err != nil {
		t.Fatal(err)
	}
	for k, h := range est.H {
		if h != 0 && cmplx.Abs(h-0.5) > 1e-9 {
			t.Errorf("carrier %d estimate %v, want 0.5", k, h)
		}
	}
}

func TestReceiveCleanLoopbackAllModes(t *testing.T) {
	for _, mode := range phy.Modes {
		frame := makeFrame(t, mode.RateMbps, 120, int64(10+mode.RateMbps))
		x := withPadding(frame, 250, 250)
		res, err := NewReceiver().Receive(x, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Signal.Mode.RateMbps != mode.RateMbps {
			t.Errorf("%v: SIGNAL decoded rate %d", mode, res.Signal.Mode.RateMbps)
		}
		if !bytes.Equal(res.PSDU, frame.PSDU) {
			t.Errorf("%v: payload errors in clean loopback", mode)
		}
		if res.EndIndex <= res.T1Index {
			t.Errorf("%v: bogus frame geometry", mode)
		}
	}
}

func TestReceiveWithCFOAndNoise(t *testing.T) {
	frame := makeFrame(t, 24, 200, 20)
	x := withPadding(frame, 400, 100)
	channel.NewCFO(-150e3, 20e6, 1.1).Process(x) // -150 kHz CFO
	channel.AddNoiseSNR(x, 25, 21)
	res, err := NewReceiver().Receive(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := countErrors(bits.FromBytes(res.PSDU), bits.FromBytes(frame.PSDU)); n != 0 {
		t.Errorf("%d bit errors with CFO and 25 dB SNR", n)
	}
	want := -150e3 / 20e6
	if math.Abs(res.CFO-want) > 2e-4 {
		t.Errorf("estimated CFO %v, want %v", res.CFO, want)
	}
}

func TestReceiveThroughMultipath(t *testing.T) {
	frame := makeFrame(t, 12, 150, 22)
	x := withPadding(frame, 300, 100)
	// Mild 4-tap channel well inside the cyclic prefix.
	mp, err := channel.NewMultipath([]complex128{0.9, 0.3i, -0.15, 0.08i})
	if err != nil {
		t.Fatal(err)
	}
	mp.Process(x)
	channel.AddNoiseSNR(x, 28, 23)
	res, err := NewReceiver().Receive(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := countErrors(bits.FromBytes(res.PSDU), bits.FromBytes(frame.PSDU)); n != 0 {
		t.Errorf("%d bit errors through multipath", n)
	}
}

func TestReceiveAtLowSNRProducesErrorsOrFails(t *testing.T) {
	// At 0 dB SNR a 54 Mbps packet cannot survive; the receiver must either
	// fail sync/SIGNAL or deliver a payload with many errors — never panic.
	frame := makeFrame(t, 54, 100, 24)
	x := withPadding(frame, 200, 100)
	channel.AddNoiseSNR(x, 0, 25)
	res, err := NewReceiver().Receive(x, 0)
	if err != nil {
		return // acceptable: detection or SIGNAL failed
	}
	n := countErrors(bits.FromBytes(res.PSDU), bits.FromBytes(frame.PSDU))
	if n == 0 && res.Signal.Mode.RateMbps == 54 {
		t.Error("error-free 54 Mbps decoding at 0 dB SNR is implausible")
	}
}

func TestIdealReceiverLoopback(t *testing.T) {
	frame := makeFrame(t, 36, 180, 26)
	lead := 123
	x := withPadding(frame, lead, 50)
	ir := &IdealReceiver{Mode: frame.Mode, PSDULen: len(frame.PSDU)}
	res, err := ir.Receive(x, lead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.PSDU, frame.PSDU) {
		t.Error("ideal receiver loopback failed")
	}
	if len(res.EqualizedCarriers) != frame.NumDataSymbols {
		t.Errorf("%d equalized symbols, want %d", len(res.EqualizedCarriers), frame.NumDataSymbols)
	}
	// Equalized carriers sit on the constellation grid.
	for _, sym := range res.EqualizedCarriers {
		for _, v := range sym {
			if math.Abs(real(v)) > 1.3 || math.Abs(imag(v)) > 1.3 {
				t.Fatalf("equalized point %v far off the unit-energy grid", v)
			}
		}
	}
}

func TestIdealReceiverValidation(t *testing.T) {
	ir := &IdealReceiver{Mode: phy.Modes[0]}
	if _, err := ir.Receive(make([]complex128, 1000), 0); err == nil {
		t.Error("accepted zero PSDU length")
	}
	ir.PSDULen = 10
	if _, err := ir.Receive(make([]complex128, 100), 0); err == nil {
		t.Error("accepted truncated input")
	}
}

func TestReceiveSecondPacket(t *testing.T) {
	f1 := makeFrame(t, 6, 40, 30)
	f2 := makeFrame(t, 12, 60, 31)
	gap := 400
	x := make([]complex128, 200+len(f1.Samples)+gap+len(f2.Samples)+100)
	copy(x[200:], f1.Samples)
	copy(x[200+len(f1.Samples)+gap:], f2.Samples)
	rx := NewReceiver()
	r1, err := rx.Receive(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.PSDU, f1.PSDU) {
		t.Error("first packet corrupted")
	}
	r2, err := rx.Receive(x, r1.EndIndex)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Signal.Mode.RateMbps != 12 {
		t.Errorf("second packet rate %d, want 12", r2.Signal.Mode.RateMbps)
	}
	if !bytes.Equal(r2.PSDU, f2.PSDU) {
		t.Error("second packet corrupted")
	}
}

func TestReceiveWithSampleClockOffset(t *testing.T) {
	// Clause 17 allows +-20 ppm per station (+-40 ppm total mismatch).
	// Short packets must survive the worst case without explicit SCO
	// tracking (the drift over ~50 symbols stays well inside the CP).
	for _, ppm := range []float64{-40, 40} {
		frame := makeFrame(t, 24, 200, 300+int64(ppm))
		x := withPadding(frame, 300, 300)
		sco, err := channel.NewSampleClockOffset(ppm)
		if err != nil {
			t.Fatal(err)
		}
		y := sco.Process(x)
		channel.AddNoiseSNR(y, 30, 301)
		res, err := NewReceiver().Receive(y, 0)
		if err != nil {
			t.Fatalf("%+.0f ppm: %v", ppm, err)
		}
		if n := countErrors(bits.FromBytes(res.PSDU), bits.FromBytes(frame.PSDU)); n != 0 {
			t.Errorf("%+.0f ppm: %d bit errors", ppm, n)
		}
	}
}

func TestReceiveReportsLinkSNR(t *testing.T) {
	frame := makeFrame(t, 24, 100, 400)
	x := withPadding(frame, 300, 100)
	channel.AddNoiseSNR(x, 18, 401)
	res, err := NewReceiver().Receive(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.LinkSNRdB-18) > 4 {
		t.Errorf("link SNR estimate %v dB at true 18 dB", res.LinkSNRdB)
	}
	// Clean signal: numerically enormous SNR.
	clean := withPadding(frame, 300, 100)
	res, err = NewReceiver().Receive(clean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkSNRdB < 40 {
		t.Errorf("clean link SNR %v dB unexpectedly low", res.LinkSNRdB)
	}
}

func TestMMSEEqualizerMatchesZFOnGoodLinks(t *testing.T) {
	frame := makeFrame(t, 24, 120, 500)
	x := withPadding(frame, 300, 100)
	channel.AddNoiseSNR(x, 22, 501)
	zf := NewReceiver()
	rz, err := zf.Receive(dsp.Clone(x), 0)
	if err != nil {
		t.Fatal(err)
	}
	mmse := NewReceiver()
	mmse.MMSE = true
	rm, err := mmse.Receive(dsp.Clone(x), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rz.PSDU, frame.PSDU) {
		t.Error("ZF failed the clean link")
	}
	if !bytes.Equal(rm.PSDU, frame.PSDU) {
		t.Error("MMSE failed the clean link")
	}
}

func TestMMSEEqualizerHelpsHardDecisionsOnFadedChannel(t *testing.T) {
	// A deep notch inside the band: MMSE suppresses the noise blow-up on
	// the faded carriers that ZF hands to a hard-decision decoder.
	zfErrs, mmseErrs := 0, 0
	trials := 6
	for trial := 0; trial < trials; trial++ {
		frame := makeFrame(t, 12, 100, 510+int64(trial))
		x := withPadding(frame, 300, 100)
		mp, err := channel.NewMultipath([]complex128{0.7, 0, 0, 0, 0, 0, 0.65}) // deep comb
		if err != nil {
			t.Fatal(err)
		}
		mp.Process(x)
		channel.AddNoiseSNR(x, 14, 511+int64(trial))

		run := func(useMMSE bool) int {
			rx := NewReceiver()
			rx.HardDecisions = true
			rx.MMSE = useMMSE
			res, err := rx.Receive(dsp.Clone(x), 0)
			if err != nil {
				return len(frame.PSDU) * 8 / 2
			}
			return countErrors(bits.FromBytes(res.PSDU), bits.FromBytes(frame.PSDU))
		}
		zfErrs += run(false)
		mmseErrs += run(true)
	}
	if mmseErrs > zfErrs {
		t.Errorf("MMSE (%d errors) worse than ZF (%d) with hard decisions on a faded channel",
			mmseErrs, zfErrs)
	}
}

// countErrors returns the number of positions where a and b differ, comparing
// up to the shorter length, plus the length difference (missing bits count as
// errors).
func countErrors(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	}
	if len(b) > n {
		errs += len(b) - n
	}
	return errs
}
