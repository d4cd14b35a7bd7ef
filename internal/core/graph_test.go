package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wlansim/internal/measure"
	"wlansim/internal/rxdsp"
)

func TestSystemGraphMatchesDirectRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.PSDULen = 80
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() != 0 {
		t.Errorf("graph-executed scenario BER %v", res.BER())
	}
	if res.Counter.Packets != 2 {
		t.Errorf("decoded %d packets", res.Counter.Packets)
	}
}

// TestSystemGraphEVMIsSymbolWeighted pins the graph's EVM to Bench's
// accounting rule: the symbol-weighted RMS over the delivered packets, not
// the worst packet's EVM. The packets are decoded again from the captured
// baseband and measured one by one.
func TestSystemGraphEVMIsSymbolWeighted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 3
	cfg.PSDULen = 80
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	rx := rxdsp.NewReceiver()
	var acc, worst float64
	symbols, from := 0, 0
	for _, frame := range sys.frames {
		pkt, err := rx.Receive(*sys.baseband, from)
		if err != nil {
			t.Fatal(err)
		}
		from = pkt.EndIndex
		ev, err := measure.EVM(pkt.EqualizedCarriers, frame.Mode.Modulation)
		if err != nil {
			t.Fatal(err)
		}
		acc += ev.RMS * ev.RMS * float64(ev.Symbols)
		symbols += ev.Symbols
		worst = math.Max(worst, ev.RMS)
	}
	want := math.Sqrt(acc / float64(symbols))
	if worst-want < 1e-6*want {
		t.Fatalf("packet EVMs too alike (worst %v, weighted %v) to tell the rules apart", worst, want)
	}
	if math.Abs(res.EVM.RMS-want) > 1e-12*want || res.EVM.Symbols != symbols {
		t.Errorf("graph EVM %v over %d symbols, want the symbol-weighted %v over %d (worst packet %v)",
			res.EVM.RMS, res.EVM.Symbols, want, symbols, worst)
	}
}

func TestSystemGraphWithAdjacentChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 1
	cfg.PSDULen = 60
	cfg.Interferers = []InterfererSpec{AdjacentChannelSpec(cfg.WantedPowerDBm)}
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	names, err := sys.Graph.BlockNames()
	if err != nil {
		t.Fatal(err)
	}
	// The schematic contains the duplicated shifted transmitter (§4.1).
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"tx-wanted", "tx-adjacent-0", "shift-tx-adjacent-0", "air-sum", "rf-frontend", "adc-capture"} {
		if !found[want] {
			t.Errorf("schematic missing block %q (have %v)", want, names)
		}
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 0.01 {
		t.Errorf("graph run with adjacent channel BER %v", res.BER())
	}
}

func TestSystemGraphProbesDeselectedByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 1
	cfg.PSDULen = 40
	bench, _ := NewBench(cfg)
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Enable the baseband probe, run, and expect samples.
	sys.BasebandProbe.Enabled = true
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.BasebandProbe.Samples) == 0 {
		t.Error("enabled probe recorded nothing")
	}
	if len(sys.AntennaProbe.Samples) != 0 {
		t.Error("deselected probe recorded samples")
	}
}

func TestSystemGraphRejectsUnsupportedOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.UseIdealRxTiming = true
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.BuildSystemGraph(); err == nil {
		t.Error("accepted ideal RX timing in graph form")
	}
	cfg = DefaultConfig()
	cfg.MultipathTaps = 3
	bench, _ = NewBench(cfg)
	if _, err := bench.BuildSystemGraph(); err == nil {
		t.Error("accepted multipath in graph form")
	}
}

func TestSystemGraphChannelNoiseBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontEnd = FrontEndIdeal
	cfg.Packets = 1
	cfg.PSDULen = 40
	snr := 3.0
	cfg.ChannelSNRdB = &snr
	bench, _ := NewBench(cfg)
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() < 0.05 {
		t.Errorf("graph run at 3 dB SNR gave BER %v", res.BER())
	}
}

// graphBasebandDigest is the FNV-64a digest of the Float64bits of the
// behavioral front end's baseband in TestSystemGraphFrontEndStreams,
// recorded from the sequential receiver chain that streamed its block
// states across the graph's frames.
const graphBasebandDigest = 0x357336ea7fa3d68d

// TestSystemGraphFrontEndStreams pins the graph's behavioral front end,
// which the frame scheduler feeds one frame per Process call with no Reset
// between frames, to the same front end run over the whole antenna signal
// in one call, and the captured baseband to a digest recorded from the
// sequential chain. Every block's state must carry across the frames.
func TestSystemGraphFrontEndStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 2
	cfg.PSDULen = 60
	cfg.Interferers = []InterfererSpec{AdjacentChannelSpec(cfg.WantedPowerDBm)}
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.BuildSystemGraph()
	if err != nil {
		t.Fatal(err)
	}
	sys.AntennaProbe.Enabled = true
	sys.BasebandProbe.Enabled = true
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	os := bench.oversample()
	if os < 2 || len(sys.AntennaProbe.Samples) <= sys.frameLen*os {
		t.Fatalf("oversample %d, %d antenna samples: the scenario must span several oversampled frames", os, len(sys.AntennaProbe.Samples))
	}
	fe, err := bench.buildFrontEnd(os)
	if err != nil {
		t.Fatal(err)
	}
	fe.Reset()
	want := fe.Process(append([]complex128(nil), sys.AntennaProbe.Samples...))
	got := sys.BasebandProbe.Samples
	if len(got) != len(want) {
		t.Fatalf("graph baseband %d samples, whole-signal run %d", len(got), len(want))
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("baseband sample %d (frame %d): graph %v, whole-signal run %v", i, i/sys.frameLen, g, w)
		}
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(g)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(g)))
		h.Write(buf[:])
	}
	if d := h.Sum64(); d != graphBasebandDigest {
		t.Errorf("graph baseband digest %#x, recorded %#x", d, uint64(graphBasebandDigest))
	}
}
