// Command wlanbench is the wlansim benchmark. One invocation runs one named
// workload for a fixed host-time budget, checks every output it produces, and
// prints one result line:
//
//	wlanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 the
// run is split into an untraced half and a traced half, and the result carries
// the per-layer metrics. The workload seed is a benchmark argument only: the
// library receives the configurations and sweep specs generated from it.
//
// Build and run it through run.sh from the repository root; README.md
// describes the workloads, the metrics and the A/B protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workload{
	{"fig5_filter_sweep", runFig5},
	{"snr_waterfall_batched", runSNR},
	{"table2_cosim", runTable2},
	{"service_mixed", runService},
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// half is the timed budget of one half of a traced run.
func (o options) half() time.Duration { return time.Duration(o.seconds / 2 * float64(time.Second)) }

// full is the timed budget of an untraced run.
func (o options) full() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports all of
// them; README.md maps each onto the workload's own operation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_cpu_ms", "ms"},
	{"heap_peak_mib", "MiB"},
}

// perLayer lists the metrics of a traced run. A layer that does no work on a
// workload reports zero there.
var perLayer = []metricDef{
	{"phy.tx_us", "us"},
	{"channel.compose_us", "us"},
	{"channel.noise_us", "us"},
	{"rf.to_filter_us", "us"},
	{"rf.from_filter_us", "us"},
	{"rf.batch_lane_us", "us"},
	{"analog.frontend_us", "us"},
	{"rxdsp.sync_us", "us"},
	{"rxdsp.equalize_us", "us"},
	{"rxdsp.sync_fail_ratio", "ratio"},
	{"phy.demap_us", "us"},
	{"viterbi.decode_us", "us"},
	{"rxdsp.decode_batch_lane_us", "us"},
	{"sim.cache_hits", "count"},
	{"sim.cache_misses", "count"},
	{"sim.cache_hit_ratio", "ratio"},
	{"sim.cache_peak_bytes", "bytes"},
	{"sim.cache_evictions", "count"},
	{"core.overhead_us", "us"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"service.submit_ms", "ms"},
	{"service.first_point_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.compute_ms", "ms"},
	{"service.retained_jobs", "count"},
	{"service.job_warm_p50_ms", "ms"},
	{"service.job_warm_p90_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.flush_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.mem_evictions", "count"},
	{"store.disk_bytes", "bytes"},
	{"runtime.allocs_per_packet", "count"},
	{"runtime.alloc_bytes_per_packet", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"table2.fast_packet_ms", "ms"},
	{"table2.cosim_over_fast", "ratio"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// metrics holds the values of the reported catalog (endToEnd or
	// perLayer); names missing from it report zero.
	metrics map[string]float64
	// report carries the workload's own named figures (the issue-level names
	// such as sweep_p50_s, with sample counts) for the report line.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seedFlag := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "timed host seconds of the run")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	record := fs.String("record-goldens", "", "recompute golden digests for the seed range lo-hi and rewrite golden.json (run from wlanbench/)")
	ab := fs.String("ab", "", "summarize an A/B: base.jsonl,head.jsonl as written by ab.sh")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ab != "" {
		basePath, headPath, ok := strings.Cut(*ab, ",")
		if !ok {
			fmt.Fprintln(stderr, "wlanbench: --ab wants base.jsonl,head.jsonl")
			return 2
		}
		if err := abSummary(basePath, headPath, stdout); err != nil {
			fmt.Fprintln(stderr, "wlanbench:", err)
			return 1
		}
		return 0
	}
	if *record != "" {
		if err := recordGoldens(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "wlanbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "wlanbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "wlanbench: --seconds must be positive")
		return 2
	}
	o := options{workload: *wl, seed: *seedFlag, seconds: *seconds, trace: *trace == 1, outDir: outDir()}
	res, report, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "wlanbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(stderr, "wlanbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "wlanbench:", err)
		return 1
	}
	return 0
}

// outDir is where spans, breakdowns and store directories go: run.sh points
// it inside the checkout's build directory.
func outDir() string {
	if d := os.Getenv("WLANBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build/wlanbench-out"
}

// run executes one workload and assembles the result line and the report
// line that precedes it.
func run(o options) (*result, map[string]any, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	out, err := w.run(o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	catalog := endToEnd
	if o.trace {
		catalog = perLayer
	}
	res := &result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	for _, m := range catalog {
		v := out.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for name := range out.metrics {
		if !inCatalog(catalog, name) {
			return nil, nil, fmt.Errorf("metric %s is not in the reported catalog", name)
		}
	}
	if res.Attempted < 1 {
		return nil, nil, errors.New("no operation attempted")
	}
	res.Correct = res.Failed == 0
	report := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"env":      environment(),
		"figures":  out.report,
	}
	return res, report, nil
}

func inCatalog(c []metricDef, name string) bool {
	for _, m := range c {
		if m.name == name {
			return true
		}
	}
	return false
}
