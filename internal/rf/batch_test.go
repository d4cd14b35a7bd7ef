package rf

import (
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/units"
)

// batchFrames builds B random complex frames of n samples near the
// receiver's expected input level.
func batchFrames(seed int64, lanes, n int, amp float64) [][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]complex128, lanes)
	for l := range out {
		out[l] = make([]complex128, n)
		for i := range out[l] {
			out[l][i] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
		}
	}
	return out
}

func cloneFrames(src [][]complex128) [][]complex128 {
	out := make([][]complex128, len(src))
	for l := range src {
		out[l] = append([]complex128(nil), src[l]...)
	}
	return out
}

// TestBatchReceiverMatchesSequential is the front-end differential test: lane
// b of BatchReceiver.Process must be bit-identical to Reset + Process on a
// fresh sequential receiver that carries the same per-lane packet history
// (the AGC resync counter is the only state Reset preserves). Covered: batch
// widths 1..16, multiple consecutive packets so resync carry is exercised,
// and the noiseless (DisableNoise) configuration.
func TestBatchReceiverMatchesSequential(t *testing.T) {
	const oversample = 4
	amp := math.Sqrt(1e-8) // ≈ -50 dBm envelope, inside the AGC window

	for _, disableNoise := range []bool{false, true} {
		cfg := DefaultReceiverConfig(oversample)
		cfg.DisableNoise = disableNoise
		for _, B := range []int{1, 2, 3, 5, 8, 16} {
			rxBatch, err := NewReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := NewBatchReceiver(rxBatch)

			// One sequential oracle per lane: its AGC resync state evolves
			// per lane exactly as the batch driver's carried state must.
			seq := make([]*oracleReceiver, B)
			for l := range seq {
				if seq[l], err = newOracleReceiver(cfg); err != nil {
					t.Fatal(err)
				}
			}

			for pkt := 0; pkt < 3; pkt++ {
				n := oversample * (40 + 16*pkt) // vary frame length across packets
				frames := batchFrames(int64(1000*B+pkt), B, n, amp)
				got := batch.Process(cloneFrames(frames))

				for l := 0; l < B; l++ {
					seq[l].Reset()
					want := seq[l].Process(append([]complex128(nil), frames[l]...))
					if len(got[l]) != len(want) {
						t.Fatalf("noise=%v B=%d pkt=%d lane %d: batch len %d != sequential len %d",
							!disableNoise, B, pkt, l, len(got[l]), len(want))
					}
					for i := range want {
						if math.Float64bits(real(got[l][i])) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got[l][i])) != math.Float64bits(imag(want[i])) {
							t.Fatalf("noise=%v B=%d pkt=%d lane %d sample %d: batch %v != sequential %v",
								!disableNoise, B, pkt, l, i, got[l][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBatchReceiverLaneDropoutMatchesSequential pins the per-lane history
// across a lane leaving the group: with the ADC's quantization off, so the
// AGC output reaches the baseband bit for bit, three lanes at different
// input levels — so their AGC resync counters differ — run six packets, and
// lane 0 sits out every packet after the third, as a sweep point that
// reached its error target does. Every lane must stay bit-identical to
// Reset + Process on its own sequential receiver, both with rx's filter on
// every lane and with a filter of each lane's own (the filter bank then
// runs each lane's own sections, each order in a kernel group of its own).
func TestBatchReceiverLaneDropoutMatchesSequential(t *testing.T) {
	const oversample, n = 1, 1700
	amps := []float64{
		math.Sqrt(units.DBmToWatts(-40) / 2),
		math.Sqrt(units.DBmToWatts(-58) / 2),
		math.Sqrt(units.DBmToWatts(-100) / 2),
	}
	// The AGC opens 5 dB under its ceiling, so the lanes' gains move on
	// different schedules and their resync counters part.
	unquantized := func(c *ReceiverConfig) {
		c.ADC.Bits = 0
		c.AGC.InitialGainDB = c.AGC.MaxGainDB - 5
	}
	for _, shared := range []bool{true, false} {
		cfgs := laneConfigs(oversample, len(amps), unquantized)
		if shared {
			for l := range cfgs {
				cfgs[l] = cfgs[0]
			}
		}
		rx, err := NewReceiver(cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := NewLaneReceiver(rx, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]*oracleReceiver, len(cfgs))
		for l := range seq {
			if seq[l], err = newOracleReceiver(cfgs[l]); err != nil {
				t.Fatal(err)
			}
		}
		var dst [][]complex128
		var dropped [3]int // each lane's resync counter when lane 0 leaves
		for pkt := 0; pkt < 6; pkt++ {
			if pkt == 3 {
				for l := range dropped {
					dropped[l] = seq[l].agc.resync
				}
			}
			ids := []int{0, 1, 2}
			if pkt > 2 {
				ids = ids[1:]
			}
			frames := make([][]complex128, len(ids))
			for k, id := range ids {
				frames[k] = batchFrames(int64(10*pkt+id), 1, n, amps[id])[0]
			}
			want := make([][]complex128, len(ids))
			for k, id := range ids {
				seq[id].Reset()
				want[k] = append([]complex128(nil), seq[id].Process(append([]complex128(nil), frames[k]...))...)
			}
			dst = lanes.ProcessLanesInto(dst, ids, frames)
			for k, id := range ids {
				diff := 0
				for i := range want[k] {
					if math.Float64bits(real(dst[k][i])) != math.Float64bits(real(want[k][i])) ||
						math.Float64bits(imag(dst[k][i])) != math.Float64bits(imag(want[k][i])) {
						diff++
					}
				}
				if len(dst[k]) != len(want[k]) || diff > 0 {
					t.Errorf("shared=%v pkt=%d lane %d: %d of %d samples differ from the sequential receiver (len %d vs %d)",
						shared, pkt, id, diff, len(want[k]), len(dst[k]), len(want[k]))
				}
			}
		}
		if dropped[0] == dropped[1] && dropped[1] == dropped[2] {
			t.Errorf("shared=%v: equal resync counters %v when lane 0 leaves; a neighbour's counter would pass unnoticed",
				shared, dropped)
		}
	}
}

// TestBatchReceiverEmpty pins the degenerate shapes: an empty batch returns
// nil and panics are reserved for ragged lanes.
func TestBatchReceiverEmpty(t *testing.T) {
	rx, err := NewReceiver(DefaultReceiverConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchReceiver(rx)
	if out := b.Process(nil); out != nil {
		t.Fatalf("empty batch: got %v, want nil", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	b.Process([][]complex128{make([]complex128, 8), make([]complex128, 6)})
}

// TestBatchReceiverScratchReuse pins that the steady state allocates
// nothing: after the first call sized the lane scratch, repeated batches of
// the same shape must be allocation-free apart from the rand source's
// internals (which are shared with the sequential path).
func TestBatchReceiverScratchReuse(t *testing.T) {
	cfg := DefaultReceiverConfig(2)
	cfg.DisableNoise = true // keep math/rand out of the allocation count
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchReceiver(rx)
	const B, n = 4, 256
	frames := batchFrames(7, B, n, 1e-4)
	work := cloneFrames(frames)
	b.Process(work)

	allocs := testing.AllocsPerRun(20, func() {
		for l := range work {
			copy(work[l], frames[l])
		}
		b.Process(work)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch Process allocates %v times per call", allocs)
	}
}

// raggedDst builds a ProcessInto destination for lanes lanes of n-sample
// output whose length and per-lane capacities vary with shape: nil, too few
// lanes, too many lanes, and lanes with no, short or ample capacity.
func raggedDst(shape, lanes, n int) [][]complex128 {
	var dst [][]complex128
	switch shape % 4 {
	case 0:
		return nil
	case 1:
		dst = make([][]complex128, lanes/2)
	case 2:
		dst = make([][]complex128, lanes+3)
	case 3:
		dst = make([][]complex128, lanes)
	}
	for l := range dst {
		switch (l + shape) % 3 {
		case 1:
			dst[l] = make([]complex128, 3, n/2+1)
		case 2:
			dst[l] = make([]complex128, 0, 2*n)
		}
	}
	return dst
}

// TestBatchReceiverProcessIntoMatchesProcess pins ProcessInto lane for lane,
// bit for bit, to Process on a twin batch receiver over consecutive packets
// (so the carried AGC state is exercised), lane counts 1 to 8 and ragged
// destinations; a lane whose destination had the capacity must be written
// in place.
func TestBatchReceiverProcessIntoMatchesProcess(t *testing.T) {
	const oversample = 4
	amp := math.Sqrt(1e-8)
	cfg := DefaultReceiverConfig(oversample)
	for B := 1; B <= 8; B++ {
		rxA, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rxB, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		viaProcess, viaInto := NewBatchReceiver(rxA), NewBatchReceiver(rxB)
		for pkt := 0; pkt < 3; pkt++ {
			n := oversample * (40 + 16*pkt)
			frames := batchFrames(int64(100*B+pkt), B, n, amp)
			want := viaProcess.Process(cloneFrames(frames))
			dst := raggedDst(B+pkt, B, n/oversample)
			backing := make([]*complex128, len(dst))
			for l := range dst {
				if cap(dst[l]) >= n/oversample {
					backing[l] = &dst[l][:1][0]
				}
			}
			got := viaInto.ProcessInto(dst, cloneFrames(frames))
			if len(got) != B {
				t.Fatalf("B=%d pkt=%d: ProcessInto returned %d lanes", B, pkt, len(got))
			}
			for l := 0; l < B; l++ {
				if len(got[l]) != len(want[l]) {
					t.Fatalf("B=%d pkt=%d lane %d: len %d != Process len %d", B, pkt, l, len(got[l]), len(want[l]))
				}
				for i := range want[l] {
					if math.Float64bits(real(got[l][i])) != math.Float64bits(real(want[l][i])) ||
						math.Float64bits(imag(got[l][i])) != math.Float64bits(imag(want[l][i])) {
						t.Fatalf("B=%d pkt=%d lane %d sample %d: ProcessInto %v != Process %v", B, pkt, l, i, got[l][i], want[l][i])
					}
				}
				if l < len(backing) && backing[l] != nil && &got[l][0] != backing[l] {
					t.Errorf("B=%d pkt=%d lane %d: output reallocated despite capacity %d", B, pkt, l, cap(dst[l]))
				}
			}
		}
	}
}

// TestBatchReceiverProcessIntoAllocFree gates the steady state the batched
// sweep runs in: with a destination already grown by an earlier packet,
// ProcessInto allocates nothing.
func TestBatchReceiverProcessIntoAllocFree(t *testing.T) {
	cfg := DefaultReceiverConfig(2)
	cfg.DisableNoise = true // keep math/rand out of the allocation count
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchReceiver(rx)
	const B, n = 6, 256
	frames := batchFrames(9, B, n, 1e-4)
	work := cloneFrames(frames)
	dst := b.ProcessInto(nil, work)
	allocs := testing.AllocsPerRun(20, func() {
		for l := range work {
			copy(work[l], frames[l])
		}
		dst = b.ProcessInto(dst, work)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessInto allocates %v times per call", allocs)
	}
}

// BenchmarkBatchReceiverProcessInto times one packet of the batched SNR
// waterfall's shape through the antenna entry: 8 lanes of 2020 samples (a
// 24 Mbit/s, 100-byte packet with lead-in and tail, no oversampling) at
// -62 dBm, the frames restored from their source before every packet.
func BenchmarkBatchReceiverProcessInto(b *testing.B) {
	const lanes, n = 8, 2020
	rx, err := NewReceiver(DefaultReceiverConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	batch := NewBatchReceiver(rx)
	frames := batchFrames(3, lanes, n, math.Sqrt(units.DBmToWatts(-62)/2))
	work := cloneFrames(frames)
	var dst [][]complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range work {
			copy(work[l], frames[l])
		}
		dst = batch.ProcessInto(dst, work)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/packet")
}
