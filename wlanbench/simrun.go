package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"wlansim/internal/measure"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 15

// simBench is one simulation workload between set-up and the end of a run.
type simBench interface {
	// warmUp runs the untimed operations that build front ends and FFT
	// plans; it is part of set-up.
	warmUp() error
	// op runs timed operation i through the library.
	op(i int) (opResult, error)
	// reference recomputes every expected output through an alternate
	// library path: the expected digest per output key, and their fold,
	// which is what golden.json records.
	reference() (keys []uint64, combined uint64, err error)
	// traced rebuilds operation i stage by stage under tr, checking each
	// rebuilt point against the library's.
	traced(i int, tr *tracer) (tracedOp, error)
	// onPath names the layer spans on a packet's critical path; their sum
	// is what trace.coverage compares with the untraced packet time.
	onPath() []string
	// cacheStats is the stage cache report of the last operation.
	cacheStats() measure.CacheStats
	// names gives the operation's report name and unit ("sweep", "s").
	names() (op, unit string)
}

// opResult describes one timed operation.
type opResult struct {
	// primary operations make up op_p50_ms and op_cpu_ms; the others (table2's
	// behavioral packets) are reported separately.
	primary bool
	// packets is the number of simulated packets counted for throughput.
	packets int
	// key selects the expected output the digest must match.
	key    int
	digest uint64
}

// tracedOp counts what one rebuilt operation did.
type tracedOp struct {
	packets, syncFails, mismatches int
}

func (t *tracedOp) add(f packetFate) {
	t.packets++
	if f == lostInSync {
		t.syncFails++
	}
}

func (t *tracedOp) merge(o tracedOp) {
	t.packets += o.packets
	t.syncFails += o.syncFails
	t.mismatches += o.mismatches
}

// untracedStats is what a timed loop of library operations measured.
type untracedStats struct {
	primary, other latencies
	// primaryCPU holds the process CPU time of each primary operation.
	primaryCPU  latencies
	packets     int
	digests     []opResult
	elapsed     time.Duration
	counters    runtimeCounters
	heapPeakMiB float64
	heapMaxMiB  float64
}

// timeOps runs operations until budget elapses (at least one), timing each.
func timeOps(b simBench, budget time.Duration) (*untracedStats, error) {
	st := &untracedStats{}
	heap := startHeapSampler(2 * time.Millisecond)
	c0 := readCounters()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		t0, c0 := time.Now(), processCPU()
		r, err := b.op(i)
		d, c := time.Since(t0), processCPU()-c0
		if err != nil {
			_, _ = heap.Stop()
			return nil, err
		}
		if r.primary {
			st.primary.add(d)
			st.primaryCPU.add(c)
			st.packets += r.packets
		} else {
			st.other.add(d)
		}
		st.digests = append(st.digests, r)
	}
	st.elapsed = time.Since(start)
	st.counters = readCounters().sub(c0)
	st.heapPeakMiB, st.heapMaxMiB = heap.Stop()
	return st, nil
}

// runSim runs a simulation workload in either mode.
func runSim(o options, mk func(seed int64) (simBench, error)) (*outcome, error) {
	out := newOutcome()
	var b simBench
	setupS, err := measureSetup(setupRepeats, func() error {
		nb, err := mk(o.seed)
		if err != nil {
			return err
		}
		if err := nb.warmUp(); err != nil {
			return err
		}
		b = nb
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	budget := o.full()
	if o.trace {
		budget = o.half()
	}
	st, err := timeOps(b, budget)
	if err != nil {
		return nil, err
	}
	if err := checkDigests(o, b, st, out); err != nil {
		return nil, err
	}
	opName, unit := b.names()
	scale := 1.0 // report-line unit per millisecond
	if unit == "s" {
		scale = 1e-3
	}
	out.report[opName+"_p50_"+unit] = st.primary.p(0.5) * scale
	out.report[opName+"_p90_"+unit] = st.primary.p(0.9) * scale
	out.report[opName+"_samples"] = len(st.primary)
	out.report[opName+"_cpu_p50_ms"] = st.primaryCPU.p(0.5)
	out.report["packets_per_s"] = float64(st.packets) / st.elapsed.Seconds()
	out.report["heap_peak_mib"] = st.heapPeakMiB
	out.report["heap_max_sample_mib"] = st.heapMaxMiB
	out.report["setup_s"] = setupS
	if len(st.other) > 0 {
		out.report["fast_packet_p50_ms"] = st.other.p(0.5)
		out.report["fast_packet_samples"] = len(st.other)
	}
	if !o.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["op_p50_ms"] = st.primary.p(0.5)
		out.metrics["op_cpu_ms"] = st.primaryCPU.p(0.5)
		out.metrics["heap_peak_mib"] = st.heapPeakMiB
		return out, nil
	}
	return out, tracedHalf(o, b, st, out)
}

// checkDigests compares every operation's output with the expected one and
// counts the operations attempted and failed (the reference recomputation
// counts as one operation).
func checkDigests(o options, b simBench, st *untracedStats, out *outcome) error {
	keys, combined, err := b.reference()
	if err != nil {
		return err
	}
	recorded, mismatch := checkGolden(o.workload, o.seed, combined)
	out.report["golden_checked"] = recorded
	out.attempted += len(st.digests) + 1
	if mismatch {
		// The library disagrees with its recorded output: nothing it
		// produced this run is trusted.
		out.failed += len(st.digests) + 1
		out.report["golden_mismatch"] = true
		return nil
	}
	for _, r := range st.digests {
		if r.key >= len(keys) || r.digest != keys[r.key] {
			out.failed++
		}
	}
	return nil
}

// tracedHalf rebuilds operations stage by stage for the second half of a
// traced run and derives the per-layer metrics.
func tracedHalf(o options, b simBench, st *untracedStats, out *outcome) error {
	tr := newTracer(time.Now())
	var t tracedOp
	c0 := readCounters()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.half(); i++ {
		r, err := b.traced(i, tr)
		if err != nil {
			return err
		}
		t.merge(r)
		out.attempted++
		if r.mismatches > 0 {
			out.failed++
		}
	}
	tracedCPU := readCounters().sub(c0).cpu
	if t.packets == 0 || st.packets == 0 {
		return fmt.Errorf("traced run simulated no packets")
	}
	m := out.metrics
	perPkt := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(t.packets) }
	for _, l := range []string{"phy.tx", "channel.compose", "channel.noise", "rf.to_filter",
		"rf.from_filter", "analog.frontend", "rxdsp.sync", "phy.demap", "viterbi.decode"} {
		m[l+"_us"] = perPkt(tr.total(l))
	}
	m["rxdsp.equalize_us"] = perPkt(tr.total("rxdsp.receive") - tr.total("rxdsp.sync"))
	m["rf.batch_lane_us"] = perPkt(tr.total("rf.batch"))
	m["rxdsp.decode_batch_lane_us"] = perPkt(tr.total("rxdsp.decode_batch"))
	m["rxdsp.sync_fail_ratio"] = float64(t.syncFails) / float64(t.packets)

	var onPath time.Duration
	for _, l := range b.onPath() {
		onPath += tr.total(l)
	}
	// Untraced per-packet host time is process CPU time per simulated packet
	// (the fig5 sweep runs 2 workers; CPU time adds them up).
	untracedUS := float64(st.counters.cpu.Nanoseconds()) / 1e3 / float64(st.packets+len(st.other))
	tracedUS := float64(tracedCPU.Nanoseconds()) / 1e3 / float64(t.packets)
	m["core.overhead_us"] = untracedUS - perPkt(onPath)
	m["trace.coverage"] = perPkt(onPath) / untracedUS
	m["trace.overhead_pct"] = (tracedUS - untracedUS) / untracedUS * 100

	cs := b.cacheStats()
	m["sim.cache_hits"] = float64(cs.Hits)
	m["sim.cache_misses"] = float64(cs.Misses)
	m["sim.cache_hit_ratio"] = cs.HitRate()
	m["sim.cache_peak_bytes"] = float64(cs.PeakBytes)
	m["sim.cache_evictions"] = float64(cs.Evictions)
	setRuntimeMetrics(out, st.counters, st.packets+len(st.other))
	if len(st.other) > 0 {
		m["table2.fast_packet_ms"] = st.other.p(0.5)
		m["table2.cosim_over_fast"] = st.primary.p(0.5) / st.other.p(0.5)
	}
	out.report["traced_packets"] = t.packets
	out.report["traced_mismatches"] = t.mismatches
	out.report["spans_dropped"] = tr.dropped
	if bd := breakdown(tr); bd != "" {
		out.report["layer_breakdown"] = strings.Split(strings.TrimSpace(bd), "\n")
		if err := writeText(filepath.Join(o.outDir, fmt.Sprintf("breakdown-%s-seed%d.txt", o.workload, o.seed)), bd); err != nil {
			return err
		}
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	out.report["spans_file"] = path
	return tr.write(path)
}

// breakdown renders the per-layer time of one packet per span group (the
// 24 Mbit/s packet on the behavioral and the co-sim front end in table2),
// with the co-sim over behavioral ratio per layer. It is empty when the
// run recorded no groups.
func breakdown(tr *tracer) string {
	packets := map[string]int{}
	layers := map[string]bool{}
	for k, n := range tr.calls {
		if k.group == "" {
			return ""
		}
		if k.name == "packet" {
			packets[k.group] = n
		} else {
			layers[k.name] = true
		}
	}
	if packets["behavioral"] == 0 || packets["co-sim"] == 0 {
		return ""
	}
	var names []string
	for n := range layers {
		if n != "rxdsp.receive" {
			names = append(names, n)
		}
	}
	names = append(names, "rxdsp.equalize")
	sort.Strings(names)
	names = append(names, "packet")
	us := func(group, name string) float64 {
		d := tr.groupTotal(group, name)
		if name == "rxdsp.equalize" {
			d = tr.groupTotal(group, "rxdsp.receive") - tr.groupTotal(group, "rxdsp.sync")
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(packets[group])
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %12s %8s\n", "layer (us/packet)", "behavioral", "co-sim", "ratio")
	for _, n := range names {
		label := n
		if n == "packet" {
			label = "whole packet"
		}
		b, c := us("behavioral", n), us("co-sim", n)
		ratio := "-"
		if b > 0 {
			ratio = fmt.Sprintf("%.1f", c/b)
		}
		fmt.Fprintf(&sb, "%-18s %12.1f %12.1f %8s\n", label, b, c, ratio)
	}
	return sb.String()
}

func writeText(path, s string) error { return os.WriteFile(path, []byte(s), 0o644) }

func runFig5(o options) (*outcome, error)   { return runSim(o, newFig5) }
func runSNR(o options) (*outcome, error)    { return runSim(o, newSNR) }
func runTable2(o options) (*outcome, error) { return runSim(o, newTable2) }
