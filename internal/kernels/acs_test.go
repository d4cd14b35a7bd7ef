package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// acsInitBank sets up the decoder's canonical starting bank: state 0 reached
// with metric 0, every other state unreached (-Inf).
func acsInitBank(m *[64]float64) {
	m[0] = 0
	nInf := math.Inf(-1)
	for i := 1; i < 64; i++ {
		m[i] = nInf
	}
}

// acsRandSoft fills a soft-metric stream with Gaussian values plus the
// occasional adversarial NaN/Inf, which must push a lane of ACSRunBatch onto
// its exact reference path for the remainder of the run.
func acsRandSoft(rng *rand.Rand, soft []float64, adversarial bool) {
	for i := range soft {
		soft[i] = rng.NormFloat64()
		if adversarial {
			switch rng.Intn(40) {
			case 0:
				soft[i] = math.NaN()
			case 1:
				soft[i] = math.Inf(1)
			case 2:
				soft[i] = math.Inf(-1)
			}
		}
	}
}

// acsRunRef is the oracle for every lane of ACSRunBatch: the ping-pong loop
// with every step taken by the frozen reference kernel.
func acsRunRef(decisions []uint64, soft []float64, metric, scratch *[64]float64) *[64]float64 {
	cur, next := metric, scratch
	for t := range decisions {
		decisions[t] = ACSStepRef(next, cur, soft[2*t], soft[2*t+1])
		cur, next = next, cur
	}
	return cur
}

// acsRunOne runs ACSRunBatch as one lane, the decoder's scalar trellis, and
// returns the bank holding the final metrics.
func acsRunOne(decisions []uint64, soft []float64, metric, scratch *[64]float64) *[64]float64 {
	var clean [1]bool
	ACSRunBatch([][]uint64{decisions}, [][]float64{soft}, []*[64]float64{metric}, []*[64]float64{scratch}, clean[:])
	if len(decisions)%2 == 1 {
		return scratch
	}
	return metric
}

// TestACSRunMatchesRef drives a one-lane ACSRunBatch and the reference over
// random and adversarial soft-metric streams, asserting bit equality of
// every decision word and of every final path metric.
func TestACSRunMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		steps := 1 + rng.Intn(96)
		soft := make([]float64, 2*steps)
		acsRandSoft(rng, soft, trial%2 == 1)

		var bankA, scratchA, bankB, scratchB [64]float64
		acsInitBank(&bankA)
		acsInitBank(&bankB)
		decA := make([]uint64, steps)
		decB := make([]uint64, steps)

		finalA := acsRunOne(decA, soft, &bankA, &scratchA)
		finalB := acsRunRef(decB, soft, &bankB, &scratchB)

		for i := range decA {
			if decA[i] != decB[i] {
				t.Fatalf("trial %d step %d: decision word %#x != ref %#x", trial, i, decA[i], decB[i])
			}
		}
		for s := range finalA {
			if math.Float64bits(finalA[s]) != math.Float64bits(finalB[s]) {
				t.Fatalf("trial %d state %d: metric %x != ref %x", trial, s,
					math.Float64bits(finalA[s]), math.Float64bits(finalB[s]))
			}
		}
	}
}

// TestACSStepGoMatchesRef checks the unrolled step kernel directly against
// the reference on its contract domain: finite branch metrics, banks free of
// NaN and +Inf (finite values and -Inf only).
func TestACSStepGoMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var metric, nextA, nextB [64]float64
	for trial := 0; trial < 5000; trial++ {
		for i := range metric {
			if rng.Intn(10) == 0 {
				metric[i] = math.Inf(-1)
			} else {
				metric[i] = rng.NormFloat64() * 10
			}
		}
		mA := rng.NormFloat64()
		mB := rng.NormFloat64()
		if trial%7 == 1 {
			mA = 0
		}
		decA := acsStepGo(&nextA, &metric, mA, mB)
		decB := ACSStepRef(&nextB, &metric, mA, mB)
		if decA != decB {
			t.Fatalf("trial %d: decision word %#x != ref %#x (mA=%g mB=%g)", trial, decA, decB, mA, mB)
		}
		for s := range nextA {
			if math.Float64bits(nextA[s]) != math.Float64bits(nextB[s]) {
				t.Fatalf("trial %d state %d: metric %x != ref %x", trial, s,
					math.Float64bits(nextA[s]), math.Float64bits(nextB[s]))
			}
		}
	}
}

func benchACS(b *testing.B, run func(decisions []uint64, soft []float64, metric, scratch *[64]float64) *[64]float64) {
	rng := rand.New(rand.NewSource(2))
	var bank, scratch [64]float64
	acsInitBank(&bank)
	soft := make([]float64, 2*1024)
	acsRandSoft(rng, soft, false)
	decisions := make([]uint64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(decisions, soft, &bank, &scratch)
	}
}

func BenchmarkACSRun(b *testing.B)    { benchACS(b, acsRunOne) }
func BenchmarkACSRunRef(b *testing.B) { benchACS(b, acsRunRef) }
