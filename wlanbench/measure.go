package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// latencies collects operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d.Nanoseconds())/1e6) }

func (l latencies) p(q float64) float64 { return quantile(append([]float64(nil), l...), q) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// measureSetup runs setup n times and returns the median duration in
// seconds. The first sample is taken from process start, so it includes
// runtime initialization and every one-time lazy set-up; the later samples
// repeat the workload's own set-up on a warm process. Between repeats,
// release (if set) frees the previous state, untimed.
func measureSetup(n int, setup func() error, release func() error) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			if err := release(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := setup(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return quantile(samples, 0.5), nil
}

// heapSampler samples the Go heap in use (bytes of live and not-yet-swept
// heap objects) while the timed region runs and keeps each GC cycle's
// peak. The highest single sample depends on where in the workload the
// collector happened to run; the median of the per-cycle peaks is the
// steady high-water mark and repeats from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

// startHeapSampler samples the heap every interval until Stop.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		var peaks []float64
		var cycle, peak uint64
		read := func() {
			metrics.Read(sample)
			v, c := sample[0].Value.Uint64(), sample[1].Value.Uint64()
			if c != cycle && peak > 0 {
				peaks = append(peaks, float64(peak))
				peak = 0
			}
			cycle = c
			if v > peak {
				peak = v
			}
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		read()
		for {
			select {
			case <-h.stop:
				read()
				h.done <- append(peaks, float64(peak))
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median per-cycle peak and the highest
// sample, in MiB.
func (h *heapSampler) Stop() (median, max float64) {
	close(h.stop)
	peaks := <-h.done
	med := quantile(peaks, 0.5) // sorts peaks
	return med / (1 << 20), peaks[len(peaks)-1] / (1 << 20)
}

// runtimeCounters is a snapshot of the allocation and GC counters.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles float64
	cpu                          time.Duration
}

var counterSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterSamples))
	for i, n := range counterSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		cpu:        processCPU(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     c.allocs - o.allocs,
		allocBytes: c.allocBytes - o.allocBytes,
		gcCycles:   c.gcCycles - o.gcCycles,
		cpu:        c.cpu - o.cpu,
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setRuntimeMetrics stores the runtime.* per-layer metrics of a region that
// simulated the given number of packets.
func setRuntimeMetrics(out *outcome, d runtimeCounters, packets int) {
	if packets > 0 {
		out.metrics["runtime.allocs_per_packet"] = d.allocs / float64(packets)
		out.metrics["runtime.alloc_bytes_per_packet"] = d.allocBytes / float64(packets)
	}
	out.metrics["runtime.gc_cycles"] = d.gcCycles
}
