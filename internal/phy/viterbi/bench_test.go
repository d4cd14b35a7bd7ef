package viterbi

import (
	"fmt"
	"math/rand"
	"testing"
)

// encodeRef is an independent rate-1/2 reference encoder (generators
// 133/171), used by the benchmarks and the allocation gates to build
// decodable streams without importing internal/phy (which imports this
// package).
func encodeRef(bits []byte) []byte {
	out := make([]byte, 0, 2*len(bits))
	state := 0
	for _, b := range bits {
		reg := int(b&1)<<6 | state
		out = append(out, parity7(reg&genA), parity7(reg&genB))
		state = reg >> 1
	}
	return out
}

// benchSoft builds a terminated soft stream of n information bits (plus 6
// tail bits) with hard ±1 metrics.
func benchSoft(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	bits := make([]byte, n+6)
	for i := 0; i < n; i++ {
		bits[i] = byte(rng.Intn(2))
	}
	coded := encodeRef(bits)
	soft := make([]float64, len(coded))
	for i, c := range coded {
		soft[i] = float64(1 - 2*int(c))
	}
	return soft
}

// BenchmarkDecodeSoft decodes a 54 Mbit/s-sized DATA field (1000-byte PSDU:
// 8118 trellis steps) with a fresh decoder per call, the pattern the packet
// chain used before the scratch reuse.
func BenchmarkDecodeSoft(b *testing.B) {
	for _, n := range []int{192, 8112} {
		b.Run(fmt.Sprintf("bits=%d", n), func(b *testing.B) {
			soft := benchSoft(n, 1)
			b.ReportAllocs()
			b.SetBytes(int64(n) / 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New().DecodeSoftInto(nil, soft); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSoftReused decodes with one long-lived decoder, the
// steady-state pattern of the packet hot path.
func BenchmarkDecodeSoftReused(b *testing.B) {
	soft := benchSoft(8112, 1)
	d := New()
	b.ReportAllocs()
	b.SetBytes(8112 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeSoftInto(nil, soft); err != nil {
			b.Fatal(err)
		}
	}
}
