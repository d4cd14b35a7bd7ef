package viterbi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/kernels"
)

// randSoft fills a soft stream with noisy antipodal metrics for a random
// terminated codeword so the trellis is realistically decodable, optionally
// salting in NaN/±Inf to force the kernel's reference fallback.
func randSoft(rng *rand.Rand, steps int, adversarial bool) []float64 {
	bits := make([]byte, steps)
	for i := 0; i < steps-6; i++ {
		bits[i] = byte(rng.Intn(2))
	}
	coded := encode(bits)
	soft := make([]float64, 2*steps)
	for i, c := range coded {
		soft[i] = (1 - 2*float64(c)) + rng.NormFloat64()*0.4
		if adversarial && rng.Intn(50) == 0 {
			switch rng.Intn(3) {
			case 0:
				soft[i] = math.NaN()
			case 1:
				soft[i] = math.Inf(1)
			case 2:
				soft[i] = math.Inf(-1)
			}
		}
	}
	return soft
}

// decodeSoftRef is the scalar decode every lane of DecodeSoftBatch (and
// DecodeSoftInto, its one-lane call) replaced, kept as their oracle: one
// trellis stepped by the frozen kernels.ACSStepRef, then the final-state
// choice and the traceback.
func decodeSoftRef(terminated bool, soft []float64) ([]byte, error) {
	if len(soft)%2 != 0 {
		return nil, fmt.Errorf("viterbi: soft stream length %d is odd", len(soft))
	}
	steps := len(soft) / 2
	if steps == 0 {
		return nil, nil
	}
	var metricA, metricB [numStates]float64
	for i := range metricA {
		metricA[i] = math.Inf(-1)
	}
	metricA[0] = 0
	decisions := make([]uint64, steps)
	metric, next := &metricA, &metricB
	for t := range decisions {
		decisions[t] = kernels.ACSStepRef(next, metric, soft[2*t], soft[2*t+1])
		metric, next = next, metric
	}
	final := 0
	if !terminated {
		best := math.Inf(-1)
		for s, m := range metric {
			if m > best {
				best, final = m, s
			}
		}
	} else if math.IsInf(metric[0], -1) {
		return nil, fmt.Errorf("viterbi: zero state unreachable in terminated trellis")
	}
	out := make([]byte, steps)
	state := final
	for t := steps - 1; t >= 0; t-- {
		out[t] = byte(state >> 5)
		r := (decisions[t] >> uint(state)) & 1
		state = ((state << 1) | int(r)) & (numStates - 1)
	}
	return out, nil
}

// checkLanesMatchRef pins every lane of one DecodeSoftBatch call, and
// DecodeSoftInto on every lane alone, to the scalar oracle: the bits, or
// the error and its text.
func checkLanesMatchRef(t *testing.T, name string, terminated bool, soft [][]float64) {
	t.Helper()
	batchDec := &Decoder{Terminated: terminated}
	seqDec := &Decoder{Terminated: terminated}
	got, errs := batchDec.DecodeSoftBatch(nil, soft)
	for b := range soft {
		want, wantErr := decodeSoftRef(terminated, soft[b])
		one, oneErr := seqDec.DecodeSoftInto(nil, soft[b])
		for _, c := range []struct {
			call string
			bits []byte
			err  error
		}{{"batch", got[b], errs[b]}, {"DecodeSoftInto", one, oneErr}} {
			if (c.err == nil) != (wantErr == nil) || c.err != nil && c.err.Error() != wantErr.Error() {
				t.Fatalf("%s lane %d: %s err %v, oracle err %v", name, b, c.call, c.err, wantErr)
			}
			if !bytes.Equal(c.bits, want) {
				t.Fatalf("%s lane %d: %s bits differ from the oracle", name, b, c.call)
			}
		}
	}
}

// TestDecodeSoftBatchMatchesSequential pins lane b of DecodeSoftBatch, and
// DecodeSoftInto, byte-identical to the scalar oracle on the same stream,
// across batch widths, terminated and unterminated trellises and
// adversarial metrics; each lane carries its own error, so an undecodable
// lane leaves its neighbours' decodes intact.
func TestDecodeSoftBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, B := range []int{1, 2, 3, 5, 8, 16} {
		for _, terminated := range []bool{true, false} {
			for trial := 0; trial < 12; trial++ {
				steps := 12 + rng.Intn(120)
				adversarial := trial%3 == 2

				soft := make([][]float64, B)
				for b := range soft {
					soft[b] = randSoft(rng, steps, adversarial)
				}
				checkLanesMatchRef(t, fmt.Sprintf("B=%d terminated=%v trial %d", B, terminated, trial), terminated, soft)
			}
		}
	}

	// A lane whose terminated trellis cannot reach the zero state (NaN
	// metrics select no predecessor) beside lanes that decode.
	nan := make([]float64, 2*40)
	for i := range nan {
		nan[i] = math.NaN()
	}
	for _, row := range []struct {
		name string
		bad  int // the NaN lane
		B    int
	}{{"lone unreachable lane", 0, 1}, {"unreachable lead lane", 0, 4}, {"unreachable middle lane", 2, 5}, {"unreachable last lane", 7, 8}} {
		soft := make([][]float64, row.B)
		for b := range soft {
			soft[b] = randSoft(rng, 40, false)
		}
		soft[row.bad] = nan
		if _, err := decodeSoftRef(true, nan); err == nil {
			t.Fatal("the NaN lane's terminated trellis reaches the zero state")
		}
		checkLanesMatchRef(t, row.name, true, soft)
		checkLanesMatchRef(t, row.name+" unterminated", false, soft)
	}
}

// TestDecodeSoftBatchRoundTrip encodes random messages on every lane and
// requires the batch decoder to recover all of them exactly through clean
// antipodal metrics.
func TestDecodeSoftBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const B, n = 6, 96
	d := New()
	msgs := make([][]byte, B)
	soft := make([][]float64, B)
	for b := 0; b < B; b++ {
		msgs[b] = make([]byte, n)
		for i := 0; i < n-6; i++ {
			msgs[b][i] = byte(rng.Intn(2))
		}
		coded := encode(msgs[b])
		soft[b] = make([]float64, len(coded))
		for i, c := range coded {
			soft[b][i] = 1 - 2*float64(c)
		}
	}
	got, errs := d.DecodeSoftBatch(nil, soft)
	for b := 0; b < B; b++ {
		if errs[b] != nil {
			t.Fatalf("lane %d: %v", b, errs[b])
		}
		if !bytes.Equal(got[b], msgs[b]) {
			t.Fatalf("lane %d: round trip failed", b)
		}
	}
}

// TestDecodeSoftBatchValidation pins the structural error paths, which
// fail every lane, and the degenerate shapes.
func TestDecodeSoftBatchValidation(t *testing.T) {
	d := New()
	for _, soft := range [][][]float64{
		{{1, -1, 1}},                // odd stream length
		{{1, -1}, {1, -1, 1, -1}},   // unequal lane lengths
		{{1, -1, 1}, {1, -1, 1, 1}}, // odd lead, unequal neighbour
	} {
		out, errs := d.DecodeSoftBatch(nil, soft)
		for b := range soft {
			if errs[b] == nil || out[b] != nil {
				t.Fatalf("lengths %d, %d: lane %d decoded (%v)", len(soft[0]), len(soft[len(soft)-1]), b, errs[b])
			}
		}
	}
	out, errs := d.DecodeSoftBatch(nil, nil)
	if len(errs) != 0 || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, errs)
	}
	out, errs = d.DecodeSoftBatch(nil, [][]float64{{}, {}})
	if len(out) != 2 || out[0] != nil || out[1] != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("zero-step batch: got %v, %v", out, errs)
	}
}

// TestDecodeSoftBatchScratchReuse pins the zero-allocation steady state: a
// warmed decoder batch-decoding into reused lane buffers allocates nothing.
func TestDecodeSoftBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const B, steps = 4, 64
	d := New()
	soft := make([][]float64, B)
	for b := range soft {
		soft[b] = randSoft(rng, steps, false)
	}
	dst, errs := d.DecodeSoftBatch(nil, soft)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	allocs := testing.AllocsPerRun(20, func() {
		var derrs []error
		dst, derrs = d.DecodeSoftBatch(dst, soft)
		if derrs[0] != nil {
			t.Fatal(derrs[0])
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeSoftBatch allocates %v times per run", allocs)
	}
}
