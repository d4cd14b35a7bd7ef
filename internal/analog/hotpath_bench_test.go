package analog

import (
	"math/rand"
	"testing"

	"wlansim/internal/race"
)

// table2Frame is the length of the Table 2 packet at the front end's input:
// the 24 Mbit/s, 100-byte PPDU plus lead-in and tail, 2020 samples at 20 MHz.
const table2Frame = 2020

// BenchmarkFrontEndProcess times the co-sim front end on one Table 2 packet
// with the default configuration, Reset before every frame as Bench does.
func BenchmarkFrontEndProcess(b *testing.B) {
	fe, err := NewFrontEnd(DefaultFrontEndConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := cosimInput(rand.New(rand.NewSource(1)), table2Frame)
	fe.Process(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.Reset()
		benchSink = fe.Process(x)
	}
}

// benchSink keeps the benchmarked output live.
var benchSink []complex128

// TestFrontEndProcessAllocs gates the co-sim front end's steady state:
// Reset plus Process allocate only the returned output slice. The first
// frames size the block buffers and warm the runtime's goroutine and
// channel-wait caches, which the LO helper goroutine draws from; refilling
// those caches after a GC is rare enough that AllocsPerRun's per-run
// average truncates it away.
func TestFrontEndProcessAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates per goroutine and channel operation; check.sh runs this gate without -race")
	}
	cfg := DefaultFrontEndConfig()
	cfg.EnableNoise = true
	fe, err := NewFrontEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := cosimInput(rand.New(rand.NewSource(1)), table2Frame)
	short := long[:20]
	for _, tc := range []struct {
		x          []complex128
		warm, runs int
	}{{short, 100, 100}, {long, 10, 20}} {
		for i := 0; i < tc.warm; i++ {
			fe.Reset()
			fe.Process(tc.x)
		}
		if got := testing.AllocsPerRun(tc.runs, func() {
			fe.Reset()
			fe.Process(tc.x)
		}); got != 1 {
			t.Errorf("%d-sample frame: Reset+Process allocate %v objects, want 1 (the output)", len(tc.x), got)
		}
	}
}
