package sim

import (
	"math"
	"math/cmplx"
	"testing"

	"wlansim/internal/channel"
	"wlansim/internal/dsp"
)

func runSingleChain(t *testing.T, src SourceFunc, fn ProcessFunc, frameLen int) []complex128 {
	t.Helper()
	g := NewGraph()
	if err := g.AddSource("src", src); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock("dut", 1, 1, fn); err != nil {
		t.Fatal(err)
	}
	var out []complex128
	if err := g.AddSink("sink", func(f []complex128) error {
		out = append(out, f...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", 0, "dut", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("dut", 0, "sink", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(frameLen, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSliceSourcePadsToTotal(t *testing.T) {
	data := []complex128{1, 2, 3}
	out := runSingleChain(t, SliceSource(data, 7), GainBlock(1), 2)
	want := []complex128{1, 2, 3, 0, 0, 0, 0}
	if len(out) != len(want) {
		t.Fatalf("length %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	// Truncation: total shorter than data.
	out = runSingleChain(t, SliceSource(data, 2), GainBlock(1), 8)
	if len(out) != 2 || out[1] != 2 {
		t.Errorf("truncated output %v", out)
	}
}

func TestGainBlockComplexGain(t *testing.T) {
	out := runSingleChain(t, SliceSource([]complex128{1, 1i}, 2), GainBlock(2i), 2)
	if out[0] != 2i || out[1] != -2 {
		t.Errorf("gain output %v", out)
	}
}

func TestAdderBlockMismatchError(t *testing.T) {
	g := NewGraph()
	_ = g.AddSource("a", SliceSource([]complex128{1, 2}, 2))
	_ = g.AddSource("b", SliceSource([]complex128{1}, 1))
	_ = g.AddBlock("add", 2, 1, AdderBlock(2))
	_ = g.Connect("a", 0, "add", 0)
	_ = g.Connect("b", 0, "add", 1)
	// Frame lengths diverge at the end (a emits 2, b emits 1).
	if _, err := g.Run(2, 0); err == nil {
		t.Error("length mismatch not reported")
	}
}

func TestFrequencyShiftBlockContinuity(t *testing.T) {
	// A DC input shifted by nu becomes a clean tone across frame
	// boundaries (oscillator phase persists).
	n := 256
	data := make([]complex128, n)
	for i := range data {
		data[i] = 1
	}
	out := runSingleChain(t, SliceSource(data, n), FrequencyShiftBlock(1.0/16), 17)
	for i := 1; i < n; i++ {
		step := cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
		if math.Abs(step-2*math.Pi/16) > 1e-9 {
			t.Fatalf("phase discontinuity at %d", i)
		}
	}
}

func TestResamplerBlocksChangeRate(t *testing.T) {
	up, err := dsp.NewUpsampler(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := runSingleChain(t, SliceSource(make([]complex128, 30), 30), UpsamplerBlock(up), 10)
	if len(out) != 90 {
		t.Errorf("upsampled length %d, want 90", len(out))
	}
}

func TestFilterBlocksDoNotMutateUpstream(t *testing.T) {
	// A block that works in place (the noise source) must clone its input
	// so a fan-out sibling sees the original frame.
	g := NewGraph()
	data := []complex128{1, 2, 3, 4}
	_ = g.AddSource("src", SliceSource(data, 4))
	_ = g.AddBlock("noise", 1, 1, AWGNBlock(channel.NewAWGN(1, 1)))
	var raw, noisy []complex128
	_ = g.AddSink("rawsink", func(f []complex128) error { raw = append(raw, f...); return nil })
	_ = g.AddSink("noisesink", func(f []complex128) error { noisy = append(noisy, f...); return nil })
	_ = g.Connect("src", 0, "noise", 0)
	_ = g.Connect("src", 0, "rawsink", 0)
	_ = g.Connect("noise", 0, "noisesink", 0)
	if _, err := g.Run(4, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if raw[i] != v {
			t.Fatalf("fan-out sibling saw mutated frame: %v", raw)
		}
	}
	if len(noisy) != 4 {
		t.Errorf("noisy length %d", len(noisy))
	}
}

func TestAWGNBlockAddsConfiguredPower(t *testing.T) {
	a := channel.NewAWGN(0.25, 3)
	n := 50000
	out := runSingleChain(t, SliceSource(make([]complex128, n), n), AWGNBlock(a), 1000)
	var p float64
	for _, v := range out {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(n)
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("noise power %v, want 0.25", p)
	}
}

type doublingProcessor struct{}

func (doublingProcessor) Process(x []complex128) []complex128 {
	for i := range x {
		x[i] *= 2
	}
	return x
}

func TestProcessorBlockAdapter(t *testing.T) {
	out := runSingleChain(t, SliceSource([]complex128{1, 2}, 2), ProcessorBlock(doublingProcessor{}), 2)
	if out[0] != 2 || out[1] != 4 {
		t.Errorf("processor adapter output %v", out)
	}
}
