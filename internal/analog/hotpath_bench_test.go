package analog

import (
	"math/rand"
	"testing"

	"wlansim/internal/race"
)

// table2Frame is the length of the Table 2 packet at the front end's input:
// the 24 Mbit/s, 100-byte PPDU plus lead-in and tail, 2020 samples at 20 MHz.
const table2Frame = 2020

// BenchmarkFrontEndProcess times the co-sim front end on one packet with the
// default configuration, Reset before every frame as Bench does: /20MHz is
// the Table 2 packet at the native rate, /60MHz the same packet as the 3x
// oversampled composite the Figure 5 adjacent-channel runs feed the front
// end (6060 samples, three times the solver steps per packet).
func BenchmarkFrontEndProcess(b *testing.B) {
	for _, tc := range []struct {
		name string
		os   int
	}{{"20MHz", 1}, {"60MHz", 3}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultFrontEndConfig()
			cfg.InputRateHz = 20e6 * float64(tc.os)
			fe, err := NewFrontEnd(cfg)
			if err != nil {
				b.Fatal(err)
			}
			x := cosimInput(rand.New(rand.NewSource(1)), table2Frame*tc.os)
			fe.Process(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Reset()
				benchSink = fe.Process(x)
			}
		})
	}
}

// benchSink keeps the benchmarked output live.
var benchSink []complex128

// TestFrontEndProcessAllocs gates the co-sim front end's steady state:
// Reset plus Process allocate only the returned output slice. The first
// frames size the drive blocks and scratch planes and warm the runtime's
// goroutine and channel-wait caches, which the drive-stage goroutine draws
// from; refilling those caches after a GC is rare enough that
// AllocsPerRun's per-run average truncates it away.
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

// BenchmarkFillDrive times the drive stage's fills alone, the counterpart
// of BenchmarkSolveBlock: the envelope blocks of one default-configuration
// Table 2 packet (2020 samples, 32x) are interpolated once, then every
// iteration restarts the LO bank and fills every block's drive (the
// up-converted RF input, both LOs' phase-noise draws and planes, the Q
// rail) into one reused block, as the drive stage does per packet.
func BenchmarkFillDrive(b *testing.B) {
	fe, err := NewFrontEnd(DefaultFrontEndConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := cosimInput(rand.New(rand.NewSource(1)), table2Frame)
	var envs [][]complex128
	fe.up.Begin(x)
	for env := fe.up.Next(); env != nil; env = fe.up.Next() {
		envs = append(envs, append([]complex128(nil), env...))
	}
	var blk driveBlock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.lo.reset()
		for _, env := range envs {
			fe.fillDrive(&blk, env)
		}
	}
}

// BenchmarkSolveBlock times the circuit recurrence alone: the drive blocks
// of one default-configuration Table 2 packet (2020 samples, 32x) are
// filled once, then every iteration resets the circuit and solves them all
// into a reused output buffer. The solver overwrites each block's RF drive,
// so the drive is restored, untimed, before every iteration.
func BenchmarkSolveBlock(b *testing.B) {
	fe, err := NewFrontEnd(DefaultFrontEndConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := cosimInput(rand.New(rand.NewSource(1)), table2Frame)
	var blocks []*driveBlock
	var drive [][]float64
	fe.up.Begin(x)
	for env := fe.up.Next(); env != nil; env = fe.up.Next() {
		blk := new(driveBlock)
		fe.fillDrive(blk, env)
		blocks = append(blocks, blk)
		drive = append(drive, append([]float64(nil), blk.v...))
	}
	out := make([]complex128, 0, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, blk := range blocks {
			copy(blk.v, drive[k])
		}
		b.StartTimer()
		fe.Reset()
		out = out[:0]
		for _, blk := range blocks {
			out = fe.solveBlock(out, blk)
		}
	}
	benchSink = out
}
