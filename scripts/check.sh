#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Usage: scripts/check.sh
#
# Runs, in order: build, go vet, the domain-invariant wlanlint suite
# (cmd/wlanlint), the compiler-backed escape gate, the tests under the race
# detector, per-package coverage floors, allocation gates, benchmark smoke
# and regression gates, and short fixed-duration fuzz runs of every
# discovered fuzz target. Exits non-zero on the first failure. This is the
# gate every PR must pass.
#
# Knobs:
#   CHECK_SKIP_BENCH=1     skip the benchmark regression gate (for CI
#                          machines whose timing is too noisy to gate on)
#   CHECK_BENCH_TIME       go test -benchtime of the first round (default 50x)
#   CHECK_BENCH_SLACK_PCT  allowed regression in percent (default 10)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> wlanlint ./..."
go run ./cmd/wlanlint ./...

echo "==> wlanlint -escape ./... (compiler-backed hot-path allocation gate)"
go run ./cmd/wlanlint -escape ./...

echo "==> go test -race ./..."
go test -race ./...

# Kernel dispatch tiers. The assembly tier must be bit-identical to the
# pure-Go tier, and every configuration that can disable it must actually
# run: the WLANSIM_SIMD=off env override, the purego build tag, and (on
# amd64) the asm-twin differential suite itself. `go test -list` guards make
# a silent skip impossible — if a build tag or rename ever drops the suites
# from the compiled set, the gate fails loudly instead of passing on an
# empty run.
echo "==> kernel dispatch tiers"
if [ "$(go env GOARCH)" = "amd64" ]; then
    asm_pat='AsmMatchesGo|Exported.*KernelsMatchRefBothTiers|SetDispatchToggles|GoldenBERDispatchInvariant'
    n="$(go test -run '^$' -list "$asm_pat" ./internal/kernels | grep -c '^Test' || true)"
    if [ "$n" -lt 16 ]; then
        echo "FAIL: internal/kernels lists only $n asm-twin differential tests matching '$asm_pat' (silent skip)" >&2
        exit 1
    fi
    echo "    asm-twin differential suite ($n kernel tests), both tiers under -race"
    go test -race -run "$asm_pat" -count=1 ./internal/kernels ./internal/core > /dev/null
else
    echo "    $(go env GOARCH): no assembly tier; pure-Go path is the only tier"
fi
echo "    WLANSIM_SIMD=off (env-forced pure-Go dispatch)"
WLANSIM_SIMD=off go test -race -count=1 ./internal/kernels > /dev/null
echo "    -tags purego (assembly tier compiled out)"
go build -tags purego ./...
go vet -tags purego ./...
go test -tags purego -count=1 ./internal/kernels ./internal/core > /dev/null

# Benchmark module. wlanbench is its own Go module that drives the library
# end to end with several sweep workers, so vetting it proves the library
# API it uses still compiles, and its race run catches unsynchronized shared
# state that only concurrent packets reach.
echo "==> benchmark module (wlanbench): go vet + go test -race"
(cd wlanbench && go vet . && go test -race -count=1 .)

# Coverage floors. The sweep engine and the experiment layer carry the
# determinism contract, and the lint engine is itself the verifier every
# other gate trusts, so their coverage must not regress. Each floor sits
# several points under the package's measured coverage at the time it was
# set — enough headroom to absorb line-count churn without letting whole
# paths go dark. When a floor trips on an intentional change, raise the
# tests, not the slack.
check_coverage() {
    pkg="$1"
    floor="$2"
    profile="$(mktemp)"
    go test -count=1 -coverprofile="$profile" "$pkg" > /dev/null
    pct="$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
    rm -f "$profile"
    echo "    $pkg coverage: ${pct}% (floor ${floor}%)"
    if awk "BEGIN {exit !($pct < $floor)}"; then
        echo "FAIL: $pkg coverage ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
}

echo "==> coverage floors"
check_coverage ./internal/sim 90
check_coverage ./internal/core 75
check_coverage ./internal/lint 80
check_coverage ./internal/kernels 85

# Batch≡sequential equivalence suite. Every batched kernel and every layer
# above it (RF front end, Viterbi, DATA-field decode, full bench) carries a
# differential test pinning batch lane l bit-identical to the sequential
# path. The `go test -list` guard makes a silent skip impossible: if a
# build-tag or rename ever removes the tests from the compiled set, the gate
# fails loudly instead of passing on an empty run.
echo "==> batch-equivalence differential suite"
batch_pat='Batch.*(Matches|Invariant)|Matches.*Batch|DeferredBatch|DemapSoftSeparable|SweepBatch|FillNormPairsMatches'
for pkg in ./internal/kernels ./internal/dsp ./internal/randutil ./internal/rf \
           ./internal/phy ./internal/phy/viterbi ./internal/rxdsp ./internal/sim ./internal/core; do
    n="$(go test -run '^$' -list "$batch_pat" "$pkg" | grep -c '^Test' || true)"
    if [ "$n" -eq 0 ]; then
        echo "FAIL: $pkg lists no batch-equivalence tests matching '$batch_pat' (silent skip)" >&2
        exit 1
    fi
    echo "    $pkg: $n batch-equivalence tests"
    go test -run "$batch_pat" -count=1 "$pkg" > /dev/null
done

# Sweep service. The daemon's whole value rests on two properties: a served
# series is byte-identical to the in-process run, and the content-addressed
# store survives crashes. Both are pinned by tests; the `go test -list`
# guards make a silent skip impossible — if a rename or build tag ever drops
# the suites from the compiled set, the gate fails loudly instead of passing
# on an empty run. The suites already ran under -race above; the guard +
# named re-run here is the no-skip proof.
echo "==> sweep service gates"
svc_pat='ServedSeriesByteIdentical|ConcurrentClients|Backpressure429|DrainFinishesAcceptedJobs|StreamedPrefixMatchesFinalSeries|OverlappingSweepComputesOnlyNovelPoints'
n="$(go test -run '^$' -list "$svc_pat" ./internal/service | grep -c '^Test' || true)"
if [ "$n" -lt 6 ]; then
    echo "FAIL: internal/service lists only $n service tests matching '$svc_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/service: $n byte-identity/load/backpressure/drain tests"
go test -run "$svc_pat" -count=1 ./internal/service > /dev/null
store_pat='DiskCrashRecovery|DiskRoundTripAcrossReopen|TieredPromotionAndStats|StoreConcurrent'
n="$(go test -run '^$' -list "$store_pat" ./internal/service/store | grep -c '^Test' || true)"
if [ "$n" -lt 4 ]; then
    echo "FAIL: internal/service/store lists only $n store tests matching '$store_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/service/store: $n crash-recovery/persistence tests"
go test -run "$store_pat" -count=1 ./internal/service/store > /dev/null

# Daemon smoke: boot the real wlansimd binary on a loopback port with a disk
# store, run one cold and one warm submission through the real wlansim
# client, require the warm one fully store-served, then SIGTERM and require
# a clean drain. This is the only place the actual process lifecycle
# (flags, signal handling, store reopen) executes.
echo "==> wlansimd daemon smoke"
smoke_dir="$(mktemp -d)"
go build -o "$smoke_dir/wlansimd" ./cmd/wlansimd
go build -o "$smoke_dir/wlansim" ./cmd/wlansim
"$smoke_dir/wlansimd" -addr 127.0.0.1:18931 -store-dir "$smoke_dir/store" 2> "$smoke_dir/daemon.log" &
smoke_pid=$!
trap 'kill "$smoke_pid" 2> /dev/null || true; rm -rf "$smoke_dir"' EXIT
for i in $(seq 1 50); do
    if grep -q 'listening' "$smoke_dir/daemon.log" 2> /dev/null; then break; fi
    sleep 0.1
done
"$smoke_dir/wlansim" submit -addr http://127.0.0.1:18931 -kind evm -packets 2 -points 3 > /dev/null 2> "$smoke_dir/cold.log"
"$smoke_dir/wlansim" submit -addr http://127.0.0.1:18931 -kind evm -packets 2 -points 3 > /dev/null 2> "$smoke_dir/warm.log"
if ! grep -q '3/3 points from store' "$smoke_dir/warm.log"; then
    echo "FAIL: warm resubmission was not fully store-served:" >&2
    cat "$smoke_dir/warm.log" >&2
    exit 1
fi
kill -TERM "$smoke_pid"
wait "$smoke_pid"
if ! grep -q 'drained' "$smoke_dir/daemon.log"; then
    echo "FAIL: wlansimd did not drain cleanly on SIGTERM:" >&2
    cat "$smoke_dir/daemon.log" >&2
    exit 1
fi
echo "    cold+warm submissions through the real daemon, warm 3/3 store-served, SIGTERM drained"
rm -rf "$smoke_dir"
trap - EXIT

# Hot-path guarantees. The allocation gates pin the zero-steady-state-alloc
# contract of the packet kernels (they also run under -race above, but the
# race detector's instrumentation changes allocation behavior, so they are
# re-run natively here), and the short benchmark run smoke-tests every
# scenario scripts/bench.sh tracks in BENCH_*.json without timing anything.
echo "==> allocation gates"
go test -run 'AllocFree|TestFIRProcessSteadyStateAllocs|TestRestartAllocs' -count=1 \
    ./internal/phy ./internal/phy/viterbi ./internal/dsp ./internal/randutil
go test -run 'TestPacketRunAllocBounded' -count=1 ./internal/core
go test -run 'TestSweepExecutorBuffersPooled|TestSweepScratchPooledAcrossConcurrentExecutes' -count=1 ./internal/sim

echo "==> benchmark smoke (1 iteration per scenario)"
go test -run '^$' -bench 'BenchmarkPacketBehavioral|BenchmarkSweepExecutor|BenchmarkSweepFilterBW|BenchmarkPacketIdeal24|BenchmarkSweepBatched' -benchtime 1x ./internal/core > /dev/null
go test -run '^$' -bench 'BenchmarkDecodeSoft' -benchtime 1x ./internal/phy/viterbi > /dev/null
go test -run '^$' -bench 'BenchmarkFFTStage' -benchtime 1x ./internal/kernels > /dev/null
go test -run '^$' -bench 'BenchmarkFIRProcess|BenchmarkComplexFIRProcess|BenchmarkFFT|BenchmarkDFT|BenchmarkIIRCascade3' -benchtime 1x ./internal/dsp > /dev/null
go test -run '^$' -bench 'BenchmarkDemodulateSymbol|BenchmarkModulateSymbol' -benchtime 1x ./internal/phy > /dev/null
go test -run '^$' -bench 'BenchmarkServiceJob' -benchtime 1x ./internal/service > /dev/null

# Benchmark regression gate. Re-measures the tracked packet/sweep scenarios
# >= 5 times each and compares every scenario's MEDIAN ns/op (benchstat
# compares distributions; the median over 5+ samples is the shell-portable
# analogue — unlike best-of-N it is robust to noise in both directions, and
# unlike the mean one co-tenant spike cannot drag it) against the medians
# recorded in the reference BENCH_*.json, failing on a regression beyond the slack. A
# first failure triggers one escalation round with longer runs that decides
# from its own samples alone — merging would keep round-one samples that a
# transient co-tenant load spike already poisoned. The first
# round uses the same -benchtime as scripts/bench.sh records with (50x):
# shorter runs measure colder caches and branch predictors and sit a
# near-constant ~10% above the recorded medians, which would eat the whole
# slack budget. Tune with CHECK_BENCH_TIME and CHECK_BENCH_SLACK_PCT (see
# the knobs above); CHECK_SKIP_BENCH=1 skips the gate entirely.
bench_ref="BENCH_10.json"
echo "==> benchmark regression gate (vs $bench_ref, >${CHECK_BENCH_SLACK_PCT:-10}% fails)"
if [ "${CHECK_SKIP_BENCH:-0}" = "1" ]; then
    echo "    CHECK_SKIP_BENCH=1; skipping"
elif [ -f "$bench_ref" ]; then
    bench_raw="$(mktemp)"
    bench_round() {
        : > "$bench_raw"
        go test -run '^$' -bench 'BenchmarkPacketBehavioral|BenchmarkSweepExecutor|BenchmarkSweepFilterBW|BenchmarkPacketIdeal24|BenchmarkSweepBatched' \
            -benchtime "$1" -count 5 ./internal/core >> "$bench_raw"
        awk -v slack="${CHECK_BENCH_SLACK_PCT:-10}" -v ref="$bench_ref" '
        function median(key,    n, i, j, tmp, a) {
            n = cnt[key]
            for (i = 1; i <= n; i++) a[i] = samp[key, i]
            for (i = 2; i <= n; i++) {
                tmp = a[i]
                for (j = i - 1; j >= 1 && a[j] > tmp; j--) a[j + 1] = a[j]
                a[j + 1] = tmp
            }
            if (n % 2) return a[(n + 1) / 2]
            return (a[n / 2] + a[n / 2 + 1]) / 2
        }
        BEGIN {
            while ((getline line < ref) > 0) {
                if (match(line, /"name": "[^"]+"/)) {
                    name = substr(line, RSTART + 9, RLENGTH - 10)
                    if (match(line, /"ns_per_op": [0-9.]+/))
                        want[name] = substr(line, RSTART + 13, RLENGTH - 13) + 0
                }
            }
            close(ref)
        }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
            samp[name, ++cnt[name]] = $3 + 0
        }
        END {
            fail = 0
            for (name in cnt) {
                if (!(name in want)) continue
                med = median(name)
                limit = want[name] * (1 + slack / 100)
                verdict = "ok"
                if (med > limit) { verdict = "REGRESSED"; fail = 1 }
                printf "    %-28s median of %2d %12.0f ns/op  recorded %12.0f  limit %12.0f  %s\n", \
                    name, cnt[name], med, want[name], limit, verdict
            }
            exit fail
        }' "$bench_raw"
    }
    if ! bench_round "${CHECK_BENCH_TIME:-50x}"; then
        echo "    regression suspected; escalating with longer runs to rule out machine noise"
        if ! bench_round 100x; then
            rm -f "$bench_raw"
            echo "FAIL: tracked benchmark regressed more than ${CHECK_BENCH_SLACK_PCT:-10}% vs $bench_ref" >&2
            exit 1
        fi
    fi
    rm -f "$bench_raw"
else
    echo "    $bench_ref not found; skipping (run scripts/bench.sh first)"
fi

# Short fuzz runs on top of the seed-corpus replay that `go test` already
# performs. Targets are discovered with `go test -list` rather than
# hardcoded, so a new Fuzz* function joins the gate the moment it is
# committed. `go test -fuzz` accepts one target per invocation.
echo "==> go test -fuzz (5s per target)"
for dir in $(grep -rl '^func Fuzz' --include='*_test.go' . | xargs -n1 dirname | sort -u); do
    for target in $(go test -run '^$' -list '^Fuzz' "$dir" | grep '^Fuzz' || true); do
        echo "    $dir $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "$dir"
    done
done

echo "OK: build, vet, wlanlint, escape gate, race tests, dispatch tiers, coverage floors, service gates, daemon smoke, alloc gates, bench smoke, regression gate and fuzz all clean"
