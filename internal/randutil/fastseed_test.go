package randutil

import (
	"math/rand"
	"testing"
)

// TestFastPathActive pins the layout probe to the toolchain: if math/rand's
// internals ever change shape, this fails loudly instead of silently
// disabling the arithmetic reseed, whose init derivation and self-check
// read the stdlib register through the probe. It also pins the snapshot
// path fibSource.Seed falls back to: a register copied from snapshotFor
// must stream bit-identically to a freshly seeded math/rand generator.
func TestFastPathActive(t *testing.T) {
	if sourceStateOf(rand.New(rand.NewSource(42))) == nil {
		t.Fatal("randutil: rngSource layout probe failed for this math/rand layout")
	}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		st := snapshotFor(seed)
		if st == nil {
			t.Fatalf("seed %d: no register snapshot", seed)
		}
		fast := rand.New(&fibSource{tap: st.tap, feed: st.feed, vec: st.vec})
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
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
