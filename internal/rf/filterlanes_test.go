package rf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/units"
)

// laneConfigs tunes the default receiver at the given oversampling into L
// filter lanes: passband edges spread across the band, orders and ripples
// differing between lanes, and one unfiltered lane when L >= 4.
func laneConfigs(oversample, L int, tune func(*ReceiverConfig)) []ReceiverConfig {
	fractions := []float64{0.22, 0.15, 0.3, 0.26, 0.4}
	orders := []int{7, 5, 3, 0, 7}
	ripples := []float64{0.5, 1, 0.25, 0.5, 0.1}
	cfgs := make([]ReceiverConfig, L)
	for l := range cfgs {
		cfg := DefaultReceiverConfig(oversample)
		if tune != nil {
			tune(&cfg)
		}
		cfg.ChannelFilterEdgeHz = fractions[l] * cfg.SampleRateHz
		cfg.ChannelFilterOrder = orders[l]
		cfg.ChannelFilterRippleDB = ripples[l]
		cfgs[l] = cfg
	}
	return cfgs
}

// preFilterFrame returns the ProcessToFilter waveform of a random antenna
// frame of n samples with per-dimension amplitude amp.
func preFilterFrame(t testing.TB, cfg ReceiverConfig, seed int64, n int, amp float64) []complex128 {
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
	}
	rx.Reset()
	return rx.ProcessToFilter(x)
}

// TestFilterLanesBatchMatchesReceiver is the filter-lane differential test:
// lane l of BatchReceiver.ProcessFromFilterInto must be bit-identical — baseband and ADC
// clip count — to Reset + ProcessFromFilter on the sequential oracle built
// from the lane's configuration that carries the same packet history. Covered:
// oversampling 1, 2 and 3; one to five lanes with differing filter orders
// (including none) and ripples; frames shorter than one block, frames that
// are not a whole number of blocks and a Figure 5-sized frame; an
// unquantized ADC, so the AGC output is compared bit for bit; a loud
// scenario whose ADC clips; a frozen AGC; lanes sitting out a packet; and
// enough packets that the AGC resync counter is carried across them.
func TestFilterLanesBatchMatchesReceiver(t *testing.T) {
	type scenario struct {
		name string
		amp  float64
		tune func(*ReceiverConfig)
	}
	scenarios := []scenario{
		{name: "nominal", amp: math.Sqrt(units.DBmToWatts(-54) / 2)},
		// Without quantization the ADC passes the AGC output bit for bit, so
		// a last-bit gain difference — a resync counter not carried — shows.
		{name: "unquantized", amp: math.Sqrt(units.DBmToWatts(-54) / 2), tune: func(c *ReceiverConfig) {
			c.ADC.Bits = 0
		}},
		// A hot start: the AGC opens 40 dB above what the input needs, so the
		// ADC clips until the attack pulls the gain down.
		{name: "clipping", amp: math.Sqrt(units.DBmToWatts(-40) / 2), tune: func(c *ReceiverConfig) {
			c.AGC.InitialGainDB = 40
		}},
		{name: "frozen", amp: math.Sqrt(units.DBmToWatts(-54) / 2), tune: func(c *ReceiverConfig) {
			c.AGC.InitialGainDB = 20
			c.AGC.Freeze = true
		}},
	}
	lengths := []int{100, 3*laneBlock + 17, 5247}
	for _, sc := range scenarios {
		for _, os := range []int{1, 2, 3} {
			for L := 1; L <= 5; L++ {
				cfgs := laneConfigs(os, L, sc.tune)
				shared, err := NewReceiver(cfgs[0])
				if err != nil {
					t.Fatal(err)
				}
				lanes, err := NewLaneReceiver(shared, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				var dst [][]complex128
				seq := make([]*oracleReceiver, L)
				for l := range seq {
					if seq[l], err = newOracleReceiver(cfgs[l]); err != nil {
						t.Fatal(err)
					}
				}
				clipped, carried := 0, false
				for pkt := 0; pkt < 2*len(lengths); pkt++ {
					n := lengths[pkt%len(lengths)]
					src := preFilterFrame(t, cfgs[0], int64(100*L+pkt), n, sc.amp)
					// Every third packet lane 1 sits out, as a sweep point
					// that reached its error target leaves the group.
					var active []int
					for l := 0; l < L; l++ {
						if !(pkt%3 == 2 && l == 1) {
							active = append(active, l)
						}
					}
					srcs := make([][]complex128, len(active))
					for k := range srcs {
						srcs[k] = src
					}
					dst = lanes.ProcessFromFilterInto(dst, active, srcs)
					got := dst
					for k, l := range active {
						seq[l].Reset()
						want := seq[l].ProcessFromFilter(append([]complex128(nil), src...))
						where := func() string {
							return fmt.Sprintf("%s os=%d L=%d pkt=%d lane=%d", sc.name, os, L, pkt, l)
						}
						if len(got[k]) != len(want) {
							t.Fatalf("%s: lanes len %d != receiver len %d", where(), len(got[k]), len(want))
						}
						for i := range want {
							if math.Float64bits(real(got[k][i])) != math.Float64bits(real(want[i])) ||
								math.Float64bits(imag(got[k][i])) != math.Float64bits(imag(want[i])) {
								t.Fatalf("%s sample %d: lanes %v != receiver %v", where(), i, got[k][i], want[i])
							}
						}
						if c := lanes.ClippedSamples(l); c != seq[l].ADCClippedSamples() {
							t.Fatalf("%s: lanes clipped %d != receiver %d", where(), c, seq[l].ADCClippedSamples())
						}
						clipped += lanes.ClippedSamples(l)
						if seq[l].agc.resync != 0 {
							carried = true
						}
					}
				}
				if sc.name == "clipping" && clipped == 0 {
					t.Errorf("%s os=%d L=%d: no ADC clipping; the scenario lost its point", sc.name, os, L)
				}
				if sc.name != "frozen" && !carried {
					t.Errorf("%s os=%d L=%d: AGC resync never carried across a packet", sc.name, os, L)
				}
			}
		}
	}
}

// TestFilterLanesRejectsUnlikeReceivers pins the lane contract: lanes may
// differ from the receiver only in the channel-select filter.
func TestFilterLanesRejectsUnlikeReceivers(t *testing.T) {
	rx, err := NewReceiver(DefaultReceiverConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, tune := range map[string]func(*ReceiverConfig){
		"AGC target": func(c *ReceiverConfig) { c.AGC.TargetDBm = -12 },
		"LNA noise":  func(c *ReceiverConfig) { c.LNA.NoiseFigureDB = 3 },
		"LO seed":    func(c *ReceiverConfig) { c.Mixer2.LO.Seed = 7 },
		"no LO":      func(c *ReceiverConfig) { c.Mixer1.LO = nil },
		"ADC bits":   func(c *ReceiverConfig) { c.ADC.Bits = 8 },
	} {
		cfgs := laneConfigs(3, 2, nil)
		tune(&cfgs[1])
		if _, err := NewLaneReceiver(rx, cfgs); err == nil {
			t.Errorf("%s: lanes differing beyond the filter were accepted", name)
		}
	}
	if _, err := NewLaneReceiver(rx, laneConfigs(3, 5, nil)); err != nil {
		t.Errorf("filter-only lanes rejected: %v", err)
	}
}

// fig5Lanes builds the Figure 5-shaped lane scenario: 48 Mbit/s wanted at
// -70 dBm with the +16 dB adjacent channel, 3x oversampled, so the
// pre-filter frame is 5247 samples at 60 MHz; 7th-order filters at the
// given edges and the AGC started where the Figure 5 bench starts it.
func fig5Lanes(tb testing.TB, edges []float64) (*Receiver, []ReceiverConfig, []complex128) {
	cfgs := make([]ReceiverConfig, len(edges))
	for l, edge := range edges {
		cfg := DefaultReceiverConfig(3)
		smallSignal := cfg.LNA.GainDB + cfg.Mixer1.ConversionGainDB + cfg.Mixer2.ConversionGainDB
		cfg.AGC.InitialGainDB = cfg.AGC.TargetDBm - (-70 + smallSignal)
		cfg.ChannelFilterOrder = 7
		cfg.ChannelFilterEdgeHz = edge
		cfgs[l] = cfg
	}
	rx, err := NewReceiver(cfgs[0])
	if err != nil {
		tb.Fatal(err)
	}
	src := preFilterFrame(tb, cfgs[0], 5, 5247, math.Sqrt(units.DBmToWatts(-53.9)/2))
	return rx, cfgs, src
}

// TestFilterLanesAllocFree pins the steady state of the pre-filter entry:
// once the lane scratch and the destination are sized, a packet through
// the lanes allocates nothing.
func TestFilterLanesAllocFree(t *testing.T) {
	rx, cfgs, src := fig5Lanes(t, []float64{6e6, 10e6, 14e6})
	lanes, err := NewLaneReceiver(rx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	active := []int{0, 1, 2}
	srcs := [][]complex128{src, src, src}
	dst := lanes.ProcessFromFilterInto(nil, active, srcs)
	if allocs := testing.AllocsPerRun(20, func() { dst = lanes.ProcessFromFilterInto(dst, active, srcs) }); allocs != 0 {
		t.Fatalf("steady-state ProcessFromFilterInto allocates %v times per packet", allocs)
	}
}

// BenchmarkBatchReceiverFromFilter times one Figure 5-shaped packet through
// three filter lanes of the pre-filter entry and reports the cost per
// packet-lane.
func BenchmarkBatchReceiverFromFilter(b *testing.B) {
	edges := []float64{6e6, 10e6, 14e6}
	rx, cfgs, src := fig5Lanes(b, edges)
	lanes, err := NewLaneReceiver(rx, cfgs)
	if err != nil {
		b.Fatal(err)
	}
	active := []int{0, 1, 2}
	srcs := [][]complex128{src, src, src}
	var dst [][]complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = lanes.ProcessFromFilterInto(dst, active, srcs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(edges)), "us/packet-lane")
}

// BenchmarkProcessFromFilter is the one-lane baseline of
// BenchmarkBatchReceiverFromFilter: the same frame and edges, one Reset +
// Receiver.ProcessFromFilter (a one-lane call of the pre-filter entry) per
// packet-lane on a copy of the shared pre-filter waveform.
func BenchmarkProcessFromFilter(b *testing.B) {
	edges := []float64{6e6, 10e6, 14e6}
	_, cfgs, src := fig5Lanes(b, edges)
	rxs := make([]*Receiver, len(cfgs))
	for l, cfg := range cfgs {
		rx, err := NewReceiver(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rxs[l] = rx
	}
	work := make([]complex128, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rx := range rxs {
			copy(work, src)
			rx.Reset()
			rx.ProcessFromFilter(work)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(edges)), "us/packet-lane")
}
