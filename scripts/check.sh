#!/bin/sh
# check.sh — the repository's full verification gate.
#
# Usage: scripts/check.sh
#
# Runs, in order: build and vet on both kernel tiers, the domain-invariant
# wlanlint suite (cmd/wlanlint) and the compiler-backed escape gate, the
# tests under the race detector, the no-skip guards of scripts/guards.txt,
# the benchmark module, per-package coverage floors, the daemon smoke and
# the sign-off report, benchmark smoke and regression gates, and short
# fixed-duration fuzz runs of every fuzz target. Exits non-zero on the first
# failure. This is the gate every PR must pass.
#
# Each run rewrites three records (gitignored): lint.json and escape.json
# hold wlanlint's findings, guards.json the guard runs' `go test -json`
# stream.
#
# Guards: scripts/guards.txt has one row per guard, six whitespace-separated
# columns: name, tier (- | purego | simd-off), race (race | -), count (=N or
# >=N Test and Fuzz names listed over all the row's packages), packages
# (comma-separated) and the -run pattern. Its header says more.
#
# Knobs:
#   CHECK_SKIP_BENCH=1  skip the benchmark regression gate (for CI machines
#                       whose timing is too noisy to gate on)
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./... (default and purego tiers)"
go build ./...
go build -tags purego ./...

echo "==> go vet ./... (default and purego tiers)"
go vet ./...
go vet -tags purego ./...

echo "==> wlanlint ./..."
if ! go run ./cmd/wlanlint -json ./... > lint.json; then
    cat lint.json >&2
    exit 1
fi

echo "==> wlanlint -escape ./... (compiler-backed hot-path allocation gate)"
if ! go run ./cmd/wlanlint -escape -json ./... > escape.json; then
    cat escape.json >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# A guard lists its pattern over all of its packages and checks the count,
# so a rename or build tag that drops a suite from the compiled set fails
# the gate instead of passing on an empty run; then it re-runs the named
# tests, appending their -json stream to guards.json behind a line naming
# the guard. Earlier guards all passed, so on a failure the output of every
# failed test and package in guards.json is this guard's.
guard() {
    name="$1" tier="$2" race="$3" count="$4" pkgs="$(echo "$5" | tr , ' ')" pat="$6"
    simd=""
    set --
    case "$tier" in
    purego) set -- -tags purego ;;
    simd-off) simd="WLANSIM_SIMD=off" ;;
    esac
    if [ "$race" = race ]; then set -- "$@" -race; fi
    n="$(go test "$@" -run '^$' -list "$pat" $pkgs | grep -cE '^(Test|Fuzz)' || true)"
    case "$count" in
    ">="*) [ "$n" -ge "${count#>=}" ] ;;
    "="*) [ "$n" -eq "${count#=}" ] ;;
    *) false ;;
    esac || {
        echo "FAIL: guard $name lists $n tests matching '$pat' in $pkgs, want $count (silent skip)" >&2
        exit 1
    }
    echo "    $name: $n tests ($tier, $race)"
    printf '{"Guard":"%s","Tier":"%s","Race":"%s"}\n' "$name" "$tier" "$race" >> guards.json
    if env $simd go test "$@" -run "$pat" -count=1 -json $pkgs >> guards.json; then
        return
    fi
    awk 'function text(s) {
        match(s, /"Output":".*"}$/)
        s = substr(s, RSTART + 10, RLENGTH - 12)
        gsub(/\\n/, "\n", s); gsub(/\\t/, "\t", s); gsub(/\\"/, "\"", s)
        return s
    }
    {
        key = ""
        if (match($0, /"Package":"[^"]*"/)) key = substr($0, RSTART, RLENGTH)
        if (match($0, /"Test":"[^"]*"/)) key = key substr($0, RSTART, RLENGTH)
    }
    /"Action":"build-output"/ { printf "%s", text($0) }
    /"Action":"output"/ { out[key] = out[key] text($0) }
    /"Action":"fail"/ { printf "%s", out[key] }' guards.json >&2
    echo "FAIL: guard $name" >&2
    exit 1
}

# The counts are amd64's: there the default and simd-off tiers compile the
# assembly twins' tests too. On another GOARCH both tiers are the pure-Go
# tier, which the purego rows pin.
echo "==> no-skip guards (scripts/guards.txt)"
: > guards.json
arch="$(go env GOARCH)"
while read -r name tier race count pkgs pat <&3; do
    case "$name" in "" | "#"*) continue ;; esac
    if [ "$arch" != amd64 ] && [ "$tier" != purego ]; then
        echo "    $name: skipped on $arch"
        continue
    fi
    guard "$name" "$tier" "$race" "$count" "$pkgs" "$pat"
done 3< scripts/guards.txt

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

# Daemon smoke: boot the real wlansimd binary on a loopback port with a disk
# store, run one cold and one warm submission through the real wlansim
# client, require the warm one fully store-served, then SIGTERM and require
# a clean drain. This is the only place the actual process lifecycle
# (flags, signal handling, store reopen) executes. The same wlansim binary
# then runs the default sign-off report, which exits non-zero on any FAIL.
echo "==> wlansimd daemon smoke and sign-off report"
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
"$smoke_dir/wlansim" report
rm -rf "$smoke_dir"
trap - EXIT

# The short benchmark run smoke-tests every scenario scripts/bench.sh tracks
# in BENCH_*.json without timing anything; the rf line also requires the
# lane AGC benchmark at the six lanes of a Figure 5 group.
echo "==> benchmark smoke (1 iteration per scenario)"
go test -run '^$' -bench 'BenchmarkPacketBehavioral|BenchmarkSweepExecutor|BenchmarkSweepFilterBW|BenchmarkPacketIdeal24|BenchmarkSweepBatched|BenchmarkCompressionPointSweepWorkers' -benchtime 1x ./internal/core > /dev/null
go test -run '^$' -bench 'BenchmarkDecodeSoft' -benchtime 1x ./internal/phy/viterbi > /dev/null
go test -run '^$' -bench 'BenchmarkFFTStage' -benchtime 1x ./internal/kernels > /dev/null
go test -run '^$' -bench 'BenchmarkFIRProcess|BenchmarkComplexFIRProcess|BenchmarkFFT|BenchmarkIIRCascade3|BenchmarkUpsamplerStream' -benchtime 1x ./internal/dsp > /dev/null
go test -run '^$' -bench 'BenchmarkDemodulateSymbol|BenchmarkModulateSymbol' -benchtime 1x ./internal/phy > /dev/null
go test -run '^$' -bench 'BenchmarkComposeAdjacent' -benchtime 1x ./internal/channel > /dev/null
go test -run '^$' -bench 'BenchmarkServiceJob' -benchtime 1x ./internal/service > /dev/null
go test -run '^$' -bench 'BenchmarkFrontEndProcess|BenchmarkSolveBlock|BenchmarkFillDrive' -benchtime 1x ./internal/analog > /dev/null
go test -run '^$' -bench 'BenchmarkFillNormMulAdd|BenchmarkFillNormPairs' -benchtime 1x ./internal/randutil > /dev/null
rf_bench="$(go test -run '^$' -bench 'BenchmarkBatchReceiverFromFilter|BenchmarkBatchReceiverProcessInto|BenchmarkProcessFromFilter|BenchmarkAGCLanes' -benchtime 1x ./internal/rf)"
if ! echo "$rf_bench" | grep -q '^BenchmarkAGCLanes/L=6'; then
    echo "FAIL: internal/rf has no BenchmarkAGCLanes/L=6" >&2
    exit 1
fi
go test -run '^$' -bench 'BenchmarkEVM' -benchtime 1x ./internal/measure > /dev/null
go test -run '^$' -bench 'BenchmarkTable2_CoSimulation' -benchtime 1x . > /dev/null

# Benchmark regression gate. Re-measures the tracked packet/sweep scenarios
# >= 5 times each and compares every scenario's MEDIAN ns/op (benchstat
# compares distributions; the median over 5+ samples is the shell-portable
# analogue — unlike best-of-N it is robust to noise in both directions, and
# unlike the mean one co-tenant spike cannot drag it) against the medians
# recorded in the reference BENCH_*.json, failing on a regression beyond the
# 10% slack. A first failure triggers one escalation round with longer runs
# that decides from its own samples alone — merging would keep round-one
# samples that a transient co-tenant load spike already poisoned. The first
# round uses the same -benchtime as scripts/bench.sh records with (50x):
# shorter runs measure colder caches and branch predictors and sit a
# near-constant ~10% above the recorded medians, which would eat the whole
# slack budget. CHECK_SKIP_BENCH=1 skips the gate entirely.
bench_ref="BENCH_10.json"
bench_slack_pct=10
echo "==> benchmark regression gate (vs $bench_ref, >${bench_slack_pct}% fails)"
if [ "${CHECK_SKIP_BENCH:-0}" = "1" ]; then
    echo "    CHECK_SKIP_BENCH=1; skipping"
elif [ -f "$bench_ref" ]; then
    bench_raw="$(mktemp)"
    bench_round() {
        : > "$bench_raw"
        go test -run '^$' -bench 'BenchmarkPacketBehavioral|BenchmarkSweepExecutor|BenchmarkSweepFilterBW|BenchmarkPacketIdeal24|BenchmarkSweepBatched' \
            -benchtime "$1" -count 5 ./internal/core >> "$bench_raw"
        awk -v slack="$bench_slack_pct" -v ref="$bench_ref" '
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
    if ! bench_round 50x; then
        echo "    regression suspected; escalating with longer runs to rule out machine noise"
        if ! bench_round 100x; then
            rm -f "$bench_raw"
            echo "FAIL: tracked benchmark regressed more than ${bench_slack_pct}% vs $bench_ref" >&2
            exit 1
        fi
    fi
    rm -f "$bench_raw"
else
    echo "    $bench_ref not found; skipping (run scripts/bench.sh $bench_ref first)"
fi

# Short fuzz runs on top of the seed-corpus replay that `go test` already
# performs. Targets are listed from the module's own packages rather than
# hardcoded, so a new Fuzz* function joins the gate the moment it is
# committed, and a listing error fails the gate. `go test -fuzz` accepts one
# target per invocation.
echo "==> go test -fuzz (5s per target)"
fuzz_list="$(go test -run '^$' -list '^Fuzz' ./...)"
echo "$fuzz_list" | awk '/^Fuzz/ {t[++n] = $1} /^ok/ {for (i = 1; i <= n; i++) print $2, t[i]; n = 0}' |
    while read -r pkg target; do
        echo "    $pkg $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "$pkg"
    done

echo "OK: build, vet, wlanlint, escape gate, race tests, guards, benchmark module, coverage floors, daemon smoke, sign-off report, bench smoke, regression gate and fuzz all clean"
