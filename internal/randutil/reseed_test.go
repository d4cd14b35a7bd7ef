package randutil

import (
	"math/rand"
	"testing"
)

// reseedTestSeeds covers the seed-folding corners: zero (mapped to the fixed
// constant), negatives, exact multiples of the modulus (which fold to zero),
// values just around the modulus, and large 63-bit hash-like values — the
// shape of the per-packet stage seeds.
var reseedTestSeeds = []int64{
	0, 1, 2, 42, -1, -7, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
	3 * (1<<31 - 1), 1<<31 - 2, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 62,
	7316732536662113123, -4181792142133755926,
}

// TestReseedSelfCheckEnabled pins that the arithmetic reseed derivation
// succeeded on this runtime — otherwise every per-packet Seed silently pays
// the snapshot-cache path this package exists to avoid.
func TestReseedSelfCheckEnabled(t *testing.T) {
	if !reseedOK {
		t.Fatal("arithmetic reseed disabled: the init derivation or its self-check failed on this Go runtime")
	}
}

// TestReseedMatchesMathRandState compares the full register — walker
// positions and all 607 entries — against a freshly seeded stdlib source for
// every corner seed.
func TestReseedMatchesMathRandState(t *testing.T) {
	if !reseedOK {
		t.Skip("arithmetic reseed unavailable")
	}
	for _, seed := range reseedTestSeeds {
		ref := sourceStateOf(rand.New(rand.NewSource(seed)))
		if ref == nil {
			t.Fatal("stdlib layout probe failed")
		}
		var got fibSource
		got.reseed(seed)
		if got.tap != ref.tap || got.feed != ref.feed {
			t.Fatalf("seed %d: walkers (%d,%d), want (%d,%d)", seed, got.tap, got.feed, ref.tap, ref.feed)
		}
		for i := range got.vec {
			if got.vec[i] != ref.vec[i] {
				t.Fatalf("seed %d: vec[%d] = %d, want %d", seed, i, got.vec[i], ref.vec[i])
			}
		}
	}
}

// TestFibSourceSeedStreamEquality reseeds one fibSource through a sequence of
// derived-style seeds mid-stream — the per-packet usage — and pins the
// resulting draw streams against reference generators.
func TestFibSourceSeedStreamEquality(t *testing.T) {
	fast := NewReseedingRand(0)
	for _, seed := range reseedTestSeeds {
		// Draw a little first so the reseed has state to overwrite.
		fast.Int63()
		fast.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ { // past one full register wrap
			if g, w := fast.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestNewReseedingRandMatchesMathRand pins the cache-free constructor.
func TestNewReseedingRandMatchesMathRand(t *testing.T) {
	for _, seed := range reseedTestSeeds {
		fast := NewReseedingRand(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if g, w := fast.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
			}
		}
		//lint:ignore floateq bit-identity contract: both generators must emit the same bits
		if g, w := fast.NormFloat64(), ref.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 %v, want %v", seed, g, w)
		}
	}
}

func BenchmarkFibSourceReseed(b *testing.B) {
	rng := NewReseedingRand(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i)*2654435761 + 12345)
	}
}

func BenchmarkMathRandReseed(b *testing.B) {
	rng := rand.New(rand.NewSource(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i)*2654435761 + 12345)
	}
}
