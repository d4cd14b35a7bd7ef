package rxdsp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/channel"
	"wlansim/internal/dsp"
	"wlansim/internal/phy"
)

// The DATA-field decode differential layer: every path through the group's
// decode — Group.Receive's own and DecodeDeferredBatch's, with
// phy.DecodeDataCarriersBatch beneath both — must leave each lane
// byte-identical to the lane-by-lane oracle receive (oracleReceive) —
// PSDU bytes, error presence and error text alike.

// noisyWave builds a padded, noise-impaired waveform for one lane.
func noisyWave(t *testing.T, rateMbps, psduLen int, seed int64, snrDB float64) ([]complex128, *phy.Frame) {
	t.Helper()
	frame := makeFrame(t, rateMbps, psduLen, seed)
	x := withPadding(frame, 300, 100)
	channel.AddNoiseSNR(x, snrDB, seed+7777)
	return x, frame
}

// receiveLanes runs each waveform through its own receiver and returns the
// per-lane packets and Receive errors. deferData selects the deferred path.
func receiveLanes(waves [][]complex128, deferData, hard bool) ([]*Receiver, []*PacketResult, []error) {
	rxs := make([]*Receiver, len(waves))
	pkts := make([]*PacketResult, len(waves))
	errs := make([]error, len(waves))
	for l, w := range waves {
		rx := NewReceiver()
		rx.DeferDataDecode = deferData
		rx.HardDecisions = hard
		rxs[l] = rx
		pkts[l], errs[l] = rx.Receive(dsp.Clone(w), 0)
	}
	return rxs, pkts, errs
}

// checkLaneEquivalence pins the deferred-batch outcome of every lane to its
// sequential outcome at byte and error-text level.
func checkLaneEquivalence(t *testing.T, seqPkts []*PacketResult, seqErrs []error, batchPkts []*PacketResult, batchErrs []error) {
	t.Helper()
	for l := range seqPkts {
		if (seqErrs[l] == nil) != (batchErrs[l] == nil) {
			t.Fatalf("lane %d: sequential err %v, deferred err %v", l, seqErrs[l], batchErrs[l])
		}
		if seqErrs[l] != nil {
			if seqErrs[l].Error() != batchErrs[l].Error() {
				t.Errorf("lane %d: error text diverged:\n seq: %v\n bat: %v", l, seqErrs[l], batchErrs[l])
			}
			continue
		}
		if !bytes.Equal(seqPkts[l].PSDU, batchPkts[l].PSDU) {
			t.Errorf("lane %d: deferred-batch PSDU differs from sequential", l)
		}
	}
}

// runDeferredDifferential receives every waveform through the oracle and
// deferred+batched, and checks lane equivalence.
func runDeferredDifferential(t *testing.T, waves [][]complex128) {
	t.Helper()
	seqPkts := make([]*PacketResult, len(waves))
	seqErrs := make([]error, len(waves))
	for l, w := range waves {
		seqPkts[l], seqErrs[l] = oracleReceive(NewReceiver(), w, 0)
	}
	rxs, pkts, errs := receiveLanes(waves, true, false)
	derrs := DecodeDeferredBatch(rxs, pkts)
	for l := range errs {
		if errs[l] == nil {
			errs[l] = derrs[l]
		} else if pkts[l] != nil {
			t.Fatalf("lane %d: failed Receive returned a packet", l)
		}
	}
	checkLaneEquivalence(t, seqPkts, seqErrs, pkts, errs)
}

func TestDeferredBatchMatchesSequential(t *testing.T) {
	for _, rate := range []int{6, 24, 54} {
		for _, B := range []int{1, 2, 3, 5, 8} {
			waves := make([][]complex128, B)
			for l := range waves {
				waves[l], _ = noisyWave(t, rate, 80, int64(1000*rate+l), 24)
			}
			runDeferredDifferential(t, waves)
		}
	}
}

func TestDeferredBatchMatchesSequentialAtLowSNR(t *testing.T) {
	// Near the waterfall some lanes decode garbage, some fail sync or SIGNAL,
	// and lanes can announce divergent rates/lengths — whatever happens, the
	// deferred batch must reproduce the sequential outcome exactly.
	for _, snr := range []float64{2, 4, 6} {
		waves := make([][]complex128, 6)
		for l := range waves {
			waves[l], _ = noisyWave(t, 24, 60, int64(31*int(snr)+l), snr)
		}
		runDeferredDifferential(t, waves)
	}
}

// TestDeferredBatchDivergentSignalGrouping runs lanes of several SIGNAL
// shapes (rate and length) through one group, twice: a non-deferred
// Group.Receive, every lane against the oracle receive, and a deferred
// receive completed by DecodeDeferredBatch, every lane against its own
// one-lane decode. Rows: two shapes in one group, a lone lane of a third
// shape, hard-decision lanes beside soft ones, and a deferred lane whose
// terminated trellis is unreachable (its carriers replaced by NaN) beside
// lanes that decode. Every clean lane must decode its PSDU.
func TestDeferredBatchDivergentSignalGrouping(t *testing.T) {
	type lane struct{ rate, length int }
	for _, row := range []struct {
		name  string
		lanes []lane
		hard  map[int]bool
		nan   int // the deferred lane given NaN carriers, or -1
	}{
		{"two shapes", []lane{{24, 90}, {6, 90}, {24, 90}, {6, 90}}, nil, -1},
		{"two shapes and a lone third", []lane{{24, 90}, {24, 60}, {54, 120}, {24, 90}, {24, 60}}, nil, -1},
		{"hard lanes", []lane{{12, 70}, {12, 70}, {36, 40}, {12, 70}}, map[int]bool{1: true, 2: true}, -1},
		{"unreachable trellis", []lane{{24, 90}, {24, 90}, {24, 90}, {6, 30}}, map[int]bool{2: true}, 1},
	} {
		frames := make([]*phy.Frame, len(row.lanes))
		waves := make([][]complex128, len(row.lanes))
		for l, ln := range row.lanes {
			frames[l] = makeFrame(t, ln.rate, ln.length, int64(500+l))
			waves[l] = withPadding(frames[l], 250, 100)
		}
		newRxs := func(deferData bool) []*Receiver {
			rxs := make([]*Receiver, len(waves))
			for l := range rxs {
				rxs[l] = NewReceiver()
				rxs[l].HardDecisions = row.hard[l]
				rxs[l].DeferDataDecode = deferData
			}
			return rxs
		}

		rxs := newRxs(false)
		pkts, errs := NewGroup().Receive(rxs, waves, 0)
		for l := range waves {
			want, werr := oracleReceive(rxs[l], waves[l], 0)
			checkMatchesOracle(t, l, pkts[l], errs[l], want, werr)
			if errs[l] != nil || !bytes.Equal(pkts[l].PSDU, frames[l].PSDU) {
				t.Fatalf("%s: lane %d: clean group receive failed (%v)", row.name, l, errs[l])
			}
		}

		rxs = newRxs(true)
		pkts, errs = NewGroup().Receive(rxs, waves, 0)
		wantPSDUs := make([][]byte, len(pkts))
		wantErrs := make([]error, len(pkts))
		for l, pkt := range pkts {
			if errs[l] != nil {
				t.Fatalf("%s: lane %d: clean Receive failed: %v", row.name, l, errs[l])
			}
			if pkt.PSDU != nil {
				t.Fatalf("%s: lane %d: deferred Receive decoded the PSDU eagerly", row.name, l)
			}
			if l == row.nan {
				for _, sym := range pkt.EqualizedCarriers {
					for i := range sym {
						sym[i] = complex(math.NaN(), math.NaN())
					}
				}
			}
			wantPSDUs[l], wantErrs[l] = oracleDecode(phy.NewPacketDecoder(), pkt.EqualizedCarriers, pkt.CSI, row.hard[l], pkt.Signal)
		}
		if row.nan >= 0 && wantErrs[row.nan] == nil {
			t.Fatalf("%s: NaN carriers decoded", row.name)
		}
		derrs := DecodeDeferredBatch(rxs, pkts)
		for l, pkt := range pkts {
			if (derrs[l] == nil) != (wantErrs[l] == nil) || derrs[l] != nil && derrs[l].Error() != wantErrs[l].Error() {
				t.Fatalf("%s: lane %d: deferred decode err %v, oracle err %v", row.name, l, derrs[l], wantErrs[l])
			}
			if !bytes.Equal(pkt.PSDU, wantPSDUs[l]) {
				t.Fatalf("%s: lane %d: deferred PSDU differs from its one-lane decode", row.name, l)
			}
			if l != row.nan && !bytes.Equal(pkt.PSDU, frames[l].PSDU) {
				t.Errorf("%s: lane %d: PSDU corrupted across divergent-SIGNAL grouping", row.name, l)
			}
		}
	}
}

func TestDeferredBatchSkipsHardDecisionLanes(t *testing.T) {
	// HardDecisions lanes defer like soft ones and decode in the same
	// lock-step pass: interleaved hard and soft lanes of one shape must all
	// complete, each hard lane with its non-deferred Receive's PSDU.
	waves := make([][]complex128, 4)
	frames := make([]*phy.Frame, 4)
	for l := range waves {
		waves[l], frames[l] = noisyWave(t, 12, 70, int64(900+l), 28)
	}
	rxs := make([]*Receiver, len(waves))
	pkts := make([]*PacketResult, len(waves))
	hardPSDUs := make([][]byte, len(waves))
	for l, w := range waves {
		rx := NewReceiver()
		rx.DeferDataDecode = true
		rx.HardDecisions = l%2 == 0
		rxs[l] = rx
		var err error
		pkts[l], err = rx.Receive(dsp.Clone(w), 0)
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
		if pkts[l].PSDU != nil {
			t.Fatalf("lane %d: deferred Receive decoded the PSDU eagerly", l)
		}
		if rx.HardDecisions {
			eager := NewReceiver()
			eager.HardDecisions = true
			res, err := eager.Receive(dsp.Clone(w), 0)
			if err != nil {
				t.Fatalf("lane %d: %v", l, err)
			}
			hardPSDUs[l] = res.PSDU
		}
	}
	derrs := DecodeDeferredBatch(rxs, pkts)
	for l := range pkts {
		if derrs[l] != nil {
			t.Fatalf("lane %d: %v", l, derrs[l])
		}
		if !bytes.Equal(pkts[l].PSDU, frames[l].PSDU) {
			t.Errorf("lane %d: PSDU errors", l)
		}
	}
	if !bytes.Equal(pkts[0].PSDU, hardPSDUs[0]) ||
		!bytes.Equal(pkts[2].PSDU, hardPSDUs[2]) {
		t.Error("a deferred hard lane's PSDU differs from its non-deferred Receive")
	}
}

func TestDeferredBatchSkipsNilLanes(t *testing.T) {
	wave, frame := noisyWave(t, 24, 50, 77, 26)
	rxs, pkts, errs := receiveLanes([][]complex128{wave}, true, false)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	// Surround the real lane with nil packets (failed Receives) and a nil
	// receiver slot, as RunBenchBatch produces for lost lanes.
	rxs = []*Receiver{nil, rxs[0], NewReceiver()}
	pkts = []*PacketResult{nil, pkts[0], nil}
	derrs := DecodeDeferredBatch(rxs, pkts)
	if derrs[0] != nil || derrs[2] != nil {
		t.Errorf("nil lanes reported errors: %v %v", derrs[0], derrs[2])
	}
	if derrs[1] != nil {
		t.Fatalf("live lane failed: %v", derrs[1])
	}
	if !bytes.Equal(pkts[1].PSDU, frame.PSDU) {
		t.Error("live lane PSDU corrupted by nil neighbors")
	}
}

// TestDecodeDataCarriersBatchMatchesSequential pins the phy-layer batch decode
// directly: B decoders over ideal-receiver carrier grids, with and without
// CSI and with hard-decision lanes, against each lane's one-lane decode on
// a fresh decoder.
func TestDecodeDataCarriersBatchMatchesSequential(t *testing.T) {
	for _, rate := range []int{6, 24, 54} {
		for _, B := range []int{1, 2, 4, 7} {
			mode, err := phy.ModeByRate(rate)
			if err != nil {
				t.Fatal(err)
			}
			psduLen := 60
			sf := phy.SignalField{Mode: mode, Length: psduLen}
			lanes := make([]phy.DataLane, B)
			want := make([][]byte, B)
			r := rand.New(rand.NewSource(int64(100*rate + B)))
			for l := 0; l < B; l++ {
				frame := makeFrame(t, rate, psduLen, int64(40*B+l))
				x := withPadding(frame, 50, 50)
				channel.AddNoiseSNR(x, 22, int64(41*B+l))
				ir := &IdealReceiver{Mode: frame.Mode, PSDULen: psduLen}
				res, err := ir.Receive(x, 50)
				if err != nil {
					t.Fatal(err)
				}
				lanes[l] = phy.DataLane{Dec: phy.NewPacketDecoder(), Carriers: res.EqualizedCarriers, Hard: l%3 == 2}
				if l%2 == 1 {
					// Alternate weighted and unweighted lanes.
					lanes[l].CSI = make([][]float64, len(res.EqualizedCarriers))
					for s := range lanes[l].CSI {
						lanes[l].CSI[s] = make([]float64, len(res.EqualizedCarriers[s]))
						for k := range lanes[l].CSI[s] {
							lanes[l].CSI[s][k] = 0.25 + r.Float64()
						}
					}
				}
				want[l], err = oracleDecode(phy.NewPacketDecoder(), lanes[l].Carriers, lanes[l].CSI, lanes[l].Hard, sf)
				if err != nil {
					t.Fatalf("lane %d sequential: %v", l, err)
				}
			}
			// A second pass over the same inputs must reproduce itself
			// (decoder state fully reset between packets).
			for pass := 0; pass < 2; pass++ {
				phy.DecodeDataCarriersBatch(lanes, mode, psduLen)
				for l := 0; l < B; l++ {
					if lanes[l].Err != nil {
						t.Fatalf("rate %d B %d pass %d lane %d: %v", rate, B, pass, l, lanes[l].Err)
					}
					if !bytes.Equal(lanes[l].PSDU, want[l]) {
						t.Errorf("rate %d B %d pass %d lane %d: batch PSDU differs from sequential", rate, B, pass, l)
					}
				}
			}
		}
	}
}
