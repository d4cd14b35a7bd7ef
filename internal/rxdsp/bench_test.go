package rxdsp

import (
	"fmt"
	"math/rand"
	"testing"

	"wlansim/internal/channel"
	"wlansim/internal/dsp"
)

// benchFrames builds n fixed 24 Mbit/s, 100-octet packets as the packet
// loop's basebands carry them: 600 samples of lead-in, a 300-sample tail,
// a carrier offset, a DC offset and noise at 12 dB SNR; 2020 samples each.
func benchFrames(b testing.TB, n int) [][]complex128 {
	rng := rand.New(rand.NewSource(91))
	xs := make([][]complex128, n)
	for k := range xs {
		x := withPadding(makeFrame(b, 24, 100, int64(k)), 600, 300)
		dsp.NewOscillator((2*rng.Float64()-1)*1e-3, rng.Float64()).MixInto(x)
		for i := range x {
			x[i] += complex(0.01, -0.005)
		}
		channel.AddNoiseSNR(x, 12, int64(100+k))
		xs[k] = x
	}
	return xs
}

// BenchmarkReceiveLanes times a group receive — sync plus equalization,
// with the DATA decode deferred so that it is timed apart — of L lanes on
// fixed frames, and reports µs per lane-packet. L=1 is Receive's one-lane
// call.
func BenchmarkReceiveLanes(b *testing.B) {
	for _, L := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			xs := benchFrames(b, L)
			rxs := make([]*Receiver, L)
			for k := range rxs {
				rxs[k] = NewReceiver()
				rxs[k].ReuseBuffers = true
				rxs[k].DeferDataDecode = true
			}
			g := NewGroup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, errs := g.Receive(rxs, xs, 0); errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*L), "us/lane-packet")
		})
	}
}

// BenchmarkFineTiming times fine timing's 160-lag search on one coarse-
// corrected packet.
func BenchmarkFineTiming(b *testing.B) {
	x := benchFrames(b, 1)[0][600-16:]
	var ts timingScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.fineTiming(x, timingStart, timingLen); err != nil {
			b.Fatal(err)
		}
	}
}
