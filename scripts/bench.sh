#!/bin/sh
# bench.sh — canonical benchmark runner for the tracked perf trajectory.
#
# Usage: scripts/bench.sh <output.json>
#
# Runs the named hot-path benchmark scenarios (behavioral BER packets at
# 6/24/54 Mbit/s, the parallel sweep executor, the sweep-service job path
# cold vs warm, and the Viterbi / FIR / FFT / OFDM microbenches) with
# -benchmem, repeating every scenario BENCH_RUNS
# times, and writes one machine-readable JSON document to <output.json>
# holding the per-scenario MEDIAN ns/op, B/op and allocs/op. A trajectory
# file is named BENCH_<issue>.json, and its "issue" field is that number;
# any other name records "issue": null. The path is required so that no run
# overwrites a checked-in trajectory file (check.sh gates on one) by default. The median over
# >= 5 samples is robust to one co-tenant load spike in either direction,
# which a single run (or a mean) is not; each perf PR checks in its
# BENCH_*.json so regressions against the trajectory are diffable.
#
# Environment:
#   BENCH_COUNT  go test -benchtime value (default 50x; raise for stability)
#   BENCH_RUNS   samples per scenario for the median (default 5, minimum 5)
set -eu

cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <output.json>" >&2
    exit 2
fi
out="$1"
issue="$(basename "$out" | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p')"
[ -n "$issue" ] || issue=null
benchtime="${BENCH_COUNT:-50x}"
runs="${BENCH_RUNS:-5}"
if [ "$runs" -lt 5 ]; then
    echo "BENCH_RUNS=$runs is below the 5-sample median minimum; using 5" >&2
    runs=5
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Kernel-dispatch identity of this run (avx2 / purego and the SIMD lane
# width), recorded in the JSON so benchmark numbers are attributable to a
# kernel tier. WLANSIM_SIMD=off and the purego build tag both surface here.
dispatch_line="$(go run ./cmd/wlansim version | grep '^kernels:')"
dispatch="$(echo "$dispatch_line" | awk '{gsub(/,/, "", $3); print $3}')"
lane_width="$(echo "$dispatch_line" | awk '{for (i = 1; i < NF; i++) if ($i == "width") {gsub(/[^0-9]/, "", $(i+1)); print $(i+1)}}')"

run_bench() {
    pkg="$1"
    pattern="$2"
    echo "==> go test -bench '$pattern' -count $runs $pkg" >&2
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -count "$runs" "$pkg" >> "$raw"
}

run_bench ./internal/core         'BenchmarkPacketBehavioral|BenchmarkSweepExecutor|BenchmarkSweepFilterBW|BenchmarkPacketIdeal24|BenchmarkSweepBatched'
run_bench ./internal/phy/viterbi  'BenchmarkDecodeSoft'
run_bench ./internal/kernels      'BenchmarkFFTStage'
run_bench ./internal/dsp          'BenchmarkFIRProcess|BenchmarkComplexFIRProcess|BenchmarkFFT|BenchmarkDFT|BenchmarkIIRCascade3'
run_bench ./internal/phy          'BenchmarkDemodulateSymbol|BenchmarkModulateSymbol'
run_bench ./internal/service      'BenchmarkServiceJob'

awk -v out_date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v dispatch="$dispatch" -v lane_width="$lane_width" -v issue="$issue" '
function median(arr, n,    i, j, tmp) {
    # insertion sort: n is tiny (BENCH_RUNS samples)
    for (i = 2; i <= n; i++) {
        tmp = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > tmp; j--) arr[j + 1] = arr[j]
        arr[j + 1] = tmp
    }
    if (n % 2) return arr[(n + 1) / 2]
    return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!(name in cnt)) { order[++m] = name; pkgOf[name] = pkg }
    k = ++cnt[name]
    nsS[name, k] = ns + 0; byS[name, k] = bytes + 0; alS[name, k] = allocs + 0
}
END {
    for (i = 1; i <= m; i++) {
        name = order[i]
        n = cnt[name]
        for (j = 1; j <= n; j++) { a[j] = nsS[name, j] }
        medNs = median(a, n)
        for (j = 1; j <= n; j++) { a[j] = byS[name, j] }
        medBy = median(a, n)
        for (j = 1; j <= n; j++) { a[j] = alS[name, j] }
        medAl = median(a, n)
        if (i > 1) printf ",\n"
        printf "    {\"package\": \"%s\", \"name\": \"%s\", \"samples\": %d, \"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d}", \
            pkgOf[name], name, n, medNs, medBy, medAl
    }
    printf "\n  ],\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"dispatch\": {\"kernels\": \"%s\", \"lane_width\": %d},\n", dispatch, lane_width
    printf "  \"date\": \"%s\"\n}\n", out_date
}
BEGIN {
    printf "{\n  \"issue\": %s,\n", issue
    printf "  \"benchmarks\": [\n"
}
' "$raw" > "$out"

echo "wrote $out" >&2
