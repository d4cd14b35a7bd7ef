package seed

import (
	"math"
	"testing"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(1, 2, 3)
	b := Derive(1, 2, 3)
	if a != b {
		t.Fatalf("Derive not deterministic: %d vs %d", a, b)
	}
}

func TestDeriveOrderSensitive(t *testing.T) {
	if Derive(1, 2, 3) == Derive(1, 3, 2) {
		t.Error("Derive ignores label order")
	}
	if Derive(1, 2) == Derive(2, 2) {
		t.Error("Derive ignores the root")
	}
	if Derive(1) == Derive(1, 0) {
		t.Error("appending a label is a no-op")
	}
}

func TestDeriveZeroRootUsable(t *testing.T) {
	// A zero root must still spread: math/rand.NewSource(0) is legal, and
	// derived children of root 0 must not collapse onto each other.
	if Derive(0, 0) == Derive(0, 1) {
		t.Error("children of the zero root collide")
	}
	if Derive(0) == 0 {
		t.Error("zero root maps to zero seed (mixer is the identity at 0)")
	}
}

// TestNoCollisionsOnGrid checks that the derivation tree of a realistic
// sweep (several roots x points x packets, plus domain separation) is
// collision-free. SplitMix64 is a bijection per step, so collisions over a
// few thousand nodes would indicate a broken chaining scheme.
func TestNoCollisionsOnGrid(t *testing.T) {
	seen := map[int64][2]int{}
	id := 0
	add := func(s int64) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: node %d and node %v both map to %d", id, prev, s)
		}
		seen[s] = [2]int{id, id}
		id++
	}
	for root := int64(0); root < 5; root++ {
		for p := 0; p < 20; p++ {
			value := -70.0 + float64(p)*0.5
			ps := ForPoint(root, value)
			add(ps)
			for k := 0; k < 10; k++ {
				add(ForStage(ps, 0, k))
			}
		}
		for r := uint64(0); r < 8; r++ {
			add(ForSeries(root, r))
		}
	}
}

func TestDomainSeparation(t *testing.T) {
	// The same numeric label through different domains must give different
	// seeds; otherwise point 3 and packet 3 of the same root would share a
	// noise realization.
	if ForStage(7, 0, 3) == ForSeries(7, 3) {
		t.Error("stage and series domains collide")
	}
	if ForPoint(7, 3) == ForStage(7, 0, int(math.Float64bits(3))) {
		t.Error("point and stage domains collide")
	}
}

func TestForPointValueIdentity(t *testing.T) {
	// The point seed depends on the value's bit pattern, not on grid
	// position: the same value in any sweep ordering draws the same seed.
	if ForPoint(42, 9.5e6) != ForPoint(42, 9.5e6) {
		t.Error("ForPoint not reproducible")
	}
	if ForPoint(42, 9.5e6) == ForPoint(42, 9.5000001e6) {
		t.Error("nearby values collide")
	}
	if ForPoint(42, 0.0) == ForPoint(42, math.Copysign(0, -1)) {
		t.Error("0.0 and -0.0 should be distinct labels (documented)")
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one bit of the label should flip roughly half the output
	// bits (SplitMix64's finalizer avalanches); accept a generous band.
	total, n := 0, 0
	for bit := uint(0); bit < 64; bit++ {
		a := uint64(Derive(1, 0))
		b := uint64(Derive(1, 1<<bit))
		total += popcount(a ^ b)
		n++
	}
	mean := float64(total) / float64(n)
	if mean < 24 || mean > 40 {
		t.Errorf("avalanche mean %.1f bits, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
