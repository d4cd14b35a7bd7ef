package service

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// sameSpec reports whether two specs are equal field by field, floats
// compared by their bit patterns (a NaN equals itself, -0 differs from 0).
func sameSpec(a, b SweepSpec) bool {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	av, bv := a.Values, b.Values
	a.Values, b.Values = nil, nil
	af, bf := [3]float64{a.PowerDBm, a.From, a.To}, [3]float64{b.PowerDBm, b.From, b.To}
	a.PowerDBm, a.From, a.To = 0, 0, 0
	b.PowerDBm, b.From, b.To = 0, 0, 0
	return reflect.DeepEqual(a, b) && slices.EqualFunc(af[:], bf[:], bitsEq) && slices.EqualFunc(av, bv, bitsEq)
}

// FuzzSpecCanonicalize drives Canonicalize with arbitrary specs, seeded with
// each kind's defaults and with a grid of math.MaxInt points (materializing
// it once panicked); raw carries explicit sweep values, eight little-endian
// bytes each. Canonicalize must never panic, and every spec it
// accepts must have strictly increasing Values, at most MaxPoints of them,
// and be a fixed point: canonicalizing the canonical form returns it
// unchanged, with equal PointKeys.
func FuzzSpecCanonicalize(f *testing.F) {
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		kd := kinds[name]
		d := kd.defaults
		f.Add(name, d.RateMbps, d.PSDULen, d.Packets, d.Seed, d.PowerDBm, d.TargetErrors,
			kd.adjacent, d.FrontEnd, d.From, d.To, d.Points, []byte(nil))
	}
	f.Add("evm", 0, 0, 0, int64(0), 0.0, 0, false, "", 0.0, 0.0, math.MaxInt, []byte(nil))
	f.Fuzz(func(t *testing.T, kind string, rate, psdu, packets int, seed int64, power float64,
		target int, adjacent bool, frontEnd string, from, to float64, points int, raw []byte) {
		spec := SweepSpec{
			Kind: kind, RateMbps: rate, PSDULen: psdu, Packets: packets, Seed: seed,
			PowerDBm: power, TargetErrors: target, Adjacent: adjacent, FrontEnd: frontEnd,
			From: from, To: to, Points: points,
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			spec.Values = append(spec.Values, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		c, err := spec.Canonicalize()
		if err != nil {
			return
		}
		if len(c.Values) == 0 || len(c.Values) > MaxPoints {
			t.Fatalf("accepted %d values, want 1..%d", len(c.Values), MaxPoints)
		}
		for i := 1; i < len(c.Values); i++ {
			if !(c.Values[i] > c.Values[i-1]) {
				t.Fatalf("accepted values not strictly increasing at %d: %g, %g", i, c.Values[i-1], c.Values[i])
			}
		}
		again, err := c.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form %+v rejected: %v", c, err)
		}
		if !sameSpec(again, c) {
			t.Fatalf("canonical form is not a fixed point:\n %+v\n %+v", c, again)
		}
		if !slices.Equal(PointKeys(again), PointKeys(c)) {
			t.Fatalf("point keys of the canonical form moved on re-canonicalization")
		}
	})
}
