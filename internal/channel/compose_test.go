package channel

import (
	"math"
	"math/rand"
	"testing"

	"wlansim/internal/bits"
	"wlansim/internal/phy"
)

// adjacentEmitters returns the Figure 5 air interface of one packet: a
// 24 Mbit/s wanted PPDU of psduLen octets after a 600-sample lead-in, and
// the first adjacent channel 16 dB above it, a back-to-back 24 Mbit/s
// stream covering the packet and a 300-sample tail.
func adjacentEmitters(t testing.TB, rng *rand.Rand, psduLen int) []Emitter {
	t.Helper()
	tx, err := phy.NewTransmitter(24)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := tx.Transmit(bits.RandomBytes(rng, psduLen))
	if err != nil {
		t.Fatal(err)
	}
	total := 600 + len(frame.Samples) + 300
	var adj []complex128
	for len(adj) < total {
		tx.ScramblerSeed = byte(1 + rng.Intn(127))
		f, err := tx.Transmit(bits.RandomBytes(rng, 200))
		if err != nil {
			t.Fatal(err)
		}
		adj = append(adj, f.Samples...)
	}
	return []Emitter{
		{Samples: frame.Samples, PowerDBm: -70, DelaySamples: 600},
		{Samples: adj[:total], OffsetHz: 20e6, PowerDBm: -54},
	}
}

// TestComposerReuseMatchesFresh composes three packets of different
// lengths back to back on one Composer, into one reused buffer, and pins
// each composite bit for bit to a fresh Composer's. Kept scratch whose
// stale samples leak from one emitter or packet into the next (the flush
// padding, the interpolator's output) fails it.
func TestComposerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	kept, err := NewComposer(3)
	if err != nil {
		t.Fatal(err)
	}
	var dst []complex128
	for p, psduLen := range []int{100, 60, 140} {
		emitters := adjacentEmitters(t, rng, psduLen)
		fresh, err := NewComposer(3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Compose(emitters)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kept.ComposeInto(dst[:0], emitters)
		if err != nil {
			t.Fatal(err)
		}
		dst = got
		if len(got) != len(want) {
			t.Fatalf("packet %d: %d samples, want %d", p, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("packet %d: sample %d = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkComposeAdjacent times the channel stage's composition of one
// Figure 5 packet: a 24 Mbit/s wanted packet plus the first adjacent
// channel on the 3x composite, on a kept Composer and output buffer.
func BenchmarkComposeAdjacent(b *testing.B) {
	emitters := adjacentEmitters(b, rand.New(rand.NewSource(1)), 100)
	c, err := NewComposer(MinOversample(20e6))
	if err != nil {
		b.Fatal(err)
	}
	dst, err := c.Compose(emitters)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.ComposeInto(dst[:0], emitters); err != nil {
			b.Fatal(err)
		}
	}
}
