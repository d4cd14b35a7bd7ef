package core

import (
	"testing"
)

// Canonical perf scenarios for scripts/bench.sh. The ns/op, B/op and
// allocs/op of these benchmarks are the tracked perf trajectory recorded in
// BENCH_*.json; treat name changes as a breaking change to that pipeline.
//
// Each packet benchmark runs exactly one packet (Packets=1) through the full
// behavioral chain — transmitter, composite channel, RF front end, DSP
// receiver — so ns/op reads directly as ns/packet.

func packetBenchConfig(rate int) Config {
	cfg := DefaultConfig()
	cfg.RateMbps = rate
	cfg.Packets = 1
	cfg.PSDULen = 100
	cfg.FrontEnd = FrontEndBehavioral
	return cfg
}

func runPacketBench(b *testing.B, rate int) {
	b.Helper()
	bench, err := NewBench(packetBenchConfig(rate))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Counter.Packets != 1 {
			b.Fatalf("simulated %d packets, want 1", res.Counter.Packets)
		}
	}
}

func BenchmarkPacketBehavioral6(b *testing.B)  { runPacketBench(b, 6) }
func BenchmarkPacketBehavioral24(b *testing.B) { runPacketBench(b, 24) }
func BenchmarkPacketBehavioral54(b *testing.B) { runPacketBench(b, 54) }

// BenchmarkSweepExecutor measures the parallel sweep engine end to end on a
// cheap ideal-front-end waterfall (3 SNR points, 1 packet each, 4 workers):
// the per-point dispatch/collect overhead plus the hot packet chain.
func BenchmarkSweepExecutor(b *testing.B) {
	base := DefaultConfig()
	base.FrontEnd = FrontEndIdeal
	base.Packets = 1
	base.PSDULen = 100
	base.Workers = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := WaterfallBERvsSNR(base, []int{24}, []float64{8, 12, 16})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 1 {
			b.Fatalf("got %d series", len(fig.Series))
		}
	}
}

// BenchmarkSweepFilterBW measures a real RF-parameter sweep end to end: the
// Figure 5 filter-bandwidth scenario (48 Mbit/s wanted + adjacent channel at
// 3x oversampling, behavioral front end) over 6 passband edges with 2 packets
// per point on 4 workers. The swept parameter only affects the front end, so
// this is the canonical beneficiary of the invariant-prefix stage cache.
func BenchmarkSweepFilterBW(b *testing.B) {
	base := Figure5Config()
	base.Packets = 2
	base.PSDULen = 100
	base.Workers = 4
	edges := []float64{6e6, 7.6e6, 9.2e6, 10.8e6, 12.4e6, 14e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := FilterBandwidthSweep(base, edges)
		if err != nil {
			b.Fatal(err)
		}
		if len(series.Points) != len(edges) {
			b.Fatalf("got %d points", len(series.Points))
		}
	}
}

// sweepBatchedConfig is the canonical batched-sweep scenario: a behavioral
// front-end waterfall at 24 Mbit/s, 8 SNR points, 2 packets per point, one
// sweep worker. With Batch=8 all points form one batch group, whose prefix
// and lane stages run ahead of its decode on goroutines of their own (see
// RunBenchBatch), so the batched run can use two CPUs.
func sweepBatchedConfig() (Config, []float64) {
	base := DefaultConfig()
	base.FrontEnd = FrontEndBehavioral
	base.Packets = 2
	base.PSDULen = 100
	base.Workers = 1
	return base, []float64{8, 10, 12, 14, 16, 18, 20, 22}
}

func runSweepBatched(b *testing.B, batch int) {
	b.Helper()
	base, snrs := sweepBatchedConfig()
	base.Batch = batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := WaterfallBERvsSNROnFrontEnd(base, FrontEndBehavioral, []int{24}, snrs)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(snrs) {
			b.Fatalf("unexpected figure shape")
		}
	}
}

// BenchmarkSweepBatched runs the canonical batched-sweep scenario through
// the lock-step batch pipeline (Batch=8: all points in one batch group).
// Compare against BenchmarkSweepBatchedSeq — identical workload, identical
// results, groups of one — for the batching speedup.
func BenchmarkSweepBatched(b *testing.B) { runSweepBatched(b, 8) }

// BenchmarkSweepBatchedSeq is the groups-of-one control for
// BenchmarkSweepBatched (Batch=1: every point its own Bench.Run).
func BenchmarkSweepBatchedSeq(b *testing.B) { runSweepBatched(b, 1) }

// BenchmarkSweepBatchedWorkers is the oversubscribed batched sweep: 16 SNR
// points at Batch=8 on all CPUs, so two batch groups run concurrently, each
// with its own run-ahead front half. Ten packets per point, as in the
// snr_waterfall_batched benchmark workload, so most packets overlap.
func BenchmarkSweepBatchedWorkers(b *testing.B) {
	base, _ := sweepBatchedConfig()
	base.Packets = 10
	base.Batch = 8
	base.Workers = 0
	snrs := make([]float64, 16)
	for i := range snrs {
		snrs[i] = 8 + float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := WaterfallBERvsSNROnFrontEnd(base, FrontEndBehavioral, []int{24}, snrs)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(snrs) {
			b.Fatalf("unexpected figure shape")
		}
	}
}

// BenchmarkPacketIdeal24 isolates the DSP chain (no RF impairment models):
// transmitter, AWGN, synchronizing receiver, soft Viterbi.
func BenchmarkPacketIdeal24(b *testing.B) {
	cfg := packetBenchConfig(24)
	cfg.FrontEnd = FrontEndIdeal
	snr := 30.0
	cfg.ChannelSNRdB = &snr
	bench, err := NewBench(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.BER() != 0 {
			b.Fatalf("BER %g at 30 dB", res.BER())
		}
	}
}

// Guard: the benchmark scenarios decode cleanly, so the timed loop measures
// the success path (a failing sync would silently skip the decode cost).
func TestPacketBenchScenariosDecode(t *testing.T) {
	for _, rate := range []int{6, 24, 54} {
		bench, err := NewBench(packetBenchConfig(rate))
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Counter.LostPackets != 0 || res.BER() != 0 {
			t.Errorf("%d Mbps: BER %g, %d lost — benchmark scenario no longer on the success path",
				rate, res.BER(), res.Counter.LostPackets)
		}
	}
}
