package rxdsp

import (
	"bytes"
	"math"
	"testing"

	"wlansim/internal/channel"
	"wlansim/internal/phy"
)

func TestReceiveAllDecodesBurstOfPackets(t *testing.T) {
	frames := []*phy.Frame{
		makeFrame(t, 6, 40, 101),
		makeFrame(t, 24, 80, 102),
		makeFrame(t, 54, 60, 103),
	}
	gap := 350
	total := 200
	for _, f := range frames {
		total += len(f.Samples) + gap
	}
	x := make([]complex128, total)
	pos := 200
	for _, f := range frames {
		copy(x[pos:], f.Samples)
		pos += len(f.Samples) + gap
	}
	channel.AddNoiseSNR(x, 30, 104)

	results := NewReceiver().ReceiveAll(x)
	if len(results) != len(frames) {
		t.Fatalf("decoded %d packets, want %d", len(results), len(frames))
	}
	for i, res := range results {
		if res.Signal.Mode.RateMbps != frames[i].Mode.RateMbps {
			t.Errorf("packet %d rate %d, want %d", i, res.Signal.Mode.RateMbps, frames[i].Mode.RateMbps)
		}
		if !bytes.Equal(res.PSDU, frames[i].PSDU) {
			t.Errorf("packet %d payload corrupted", i)
		}
	}
}

func TestReceiveAllSkipsCorruptedPacket(t *testing.T) {
	good1 := makeFrame(t, 12, 50, 110)
	bad := makeFrame(t, 12, 50, 111)
	good2 := makeFrame(t, 12, 50, 112)
	gap := 300
	x := make([]complex128, 200+3*(len(good1.Samples)+gap)+200)
	pos := 200
	copy(x[pos:], good1.Samples)
	pos += len(good1.Samples) + gap
	// Corrupt the bad frame's data field completely (keep its preamble so
	// the detector fires and the receiver must skip it).
	start := pos
	copy(x[pos:], bad.Samples)
	for i := start + phy.PreambleLen; i < start+len(bad.Samples); i++ {
		x[i] = 0
	}
	pos += len(bad.Samples) + gap
	copy(x[pos:], good2.Samples)

	results := NewReceiver().ReceiveAll(x)
	if len(results) != 2 {
		t.Fatalf("decoded %d packets, want 2 (skipping the corrupted one)", len(results))
	}
	if !bytes.Equal(results[0].PSDU, good1.PSDU) {
		t.Error("first packet corrupted")
	}
	if !bytes.Equal(results[1].PSDU, good2.PSDU) {
		t.Error("second good packet not recovered after the corrupted one")
	}
}

func TestReceiveAllEmptyStream(t *testing.T) {
	if got := NewReceiver().ReceiveAll(make([]complex128, 5000)); len(got) != 0 {
		t.Errorf("decoded %d packets from silence", len(got))
	}
	if got := NewReceiver().ReceiveAll(nil); len(got) != 0 {
		t.Error("nil stream decoded packets")
	}
}

func TestEstimationSNRTracksChannelNoise(t *testing.T) {
	frame := makeFrame(t, 6, 40, 130)
	t1 := phy.ShortPreambleLen + 32

	clean := withPadding(frame, 0, 0)
	snrClean, err := EstimationSNR(clean, t1)
	if err != nil {
		t.Fatal(err)
	}
	if snrClean < 100 {
		t.Errorf("clean estimation SNR %v dB, want numerically huge", snrClean)
	}

	noisy := withPadding(frame, 0, 0)
	channel.AddNoiseSNR(noisy, 20, 131)
	snrNoisy, err := EstimationSNR(noisy, t1)
	if err != nil {
		t.Fatal(err)
	}
	// The per-symbol SNR estimate should land near the true 20 dB.
	if math.Abs(snrNoisy-20) > 3 {
		t.Errorf("estimation SNR %v dB at true 20 dB", snrNoisy)
	}
	if _, err := EstimationSNR(clean, len(clean)); err == nil {
		t.Error("accepted out-of-range t1")
	}
}
