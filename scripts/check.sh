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

# The testonly analyzer keeps test-only code out of the production packages.
# Its fixture suite (a helper only tests call is flagged; callers in cmd/,
# the root package and another internal package clear it; the interface
# exemptions; the ignore form and its stale report; a one-package run) must
# be compiled in: the `go test -list` guard fails loudly on a silent skip.
echo "==> testonly analyzer fixture suite"
testonly_pat='TestTestOnly'
n="$(go test -run '^$' -list "$testonly_pat" ./internal/lint | grep -c '^TestTestOnly' || true)"
if [ "$n" -lt 4 ]; then
    echo "FAIL: internal/lint lists only $n testonly fixture tests matching '$testonly_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/lint: $n testonly fixture tests"
go test -run "$testonly_pat" -count=1 ./internal/lint > /dev/null

echo "==> wlanlint -escape ./... (compiler-backed hot-path allocation gate)"
go run ./cmd/wlanlint -escape ./...

echo "==> go test -race ./..."
go test -race ./...

# Kernel dispatch tiers. The assembly tier must be bit-identical to the
# pure-Go tier, and every configuration that can disable it must actually
# run: the WLANSIM_SIMD=off env override, the purego build tag, and (on
# amd64) the asm-twin differential suite itself. The co-sim front end's LO
# bank runs on the Sincos kernel, its circuit recurrence on the CTSolve
# kernel and its upsampler on the FFT stage kernels, so internal/analog and
# internal/dsp join kernels and core on both pure-Go configurations: the
# co-sim goldens, recorded before those kernels existed, then hold on
# either tier. internal/rf joins them for the behavioral front end's mixer,
# biquad and plane kernels: its oracle and lane differential tests hold on
# either tier. internal/randutil joins them for the normal-draw kernels
# under its plane fills: its math/rand stream tests and FuzzNormFill's
# corpus hold on either tier. `go test -list` guards make
# a silent skip impossible — if a build tag or rename ever drops the suites
# from the compiled set, the gate fails loudly instead of passing on an
# empty run.
echo "==> kernel dispatch tiers"
if [ "$(go env GOARCH)" = "amd64" ]; then
    asm_pat='AsmMatchesGo|Exported.*KernelsMatchRefBothTiers|SetDispatchToggles|GoldenBERDispatchInvariant'
    n="$(go test -run '^$' -list "$asm_pat" ./internal/kernels | grep -c '^Test' || true)"
    if [ "$n" -lt 21 ]; then
        echo "FAIL: internal/kernels lists only $n asm-twin differential tests matching '$asm_pat' (silent skip)" >&2
        exit 1
    fi
    echo "    asm-twin differential suite ($n kernel tests), both tiers under -race"
    go test -race -run "$asm_pat" -count=1 ./internal/kernels ./internal/core > /dev/null
else
    echo "    $(go env GOARCH): no assembly tier; pure-Go path is the only tier"
fi
echo "    WLANSIM_SIMD=off (env-forced pure-Go dispatch)"
WLANSIM_SIMD=off go test -race -count=1 ./internal/kernels ./internal/dsp ./internal/analog ./internal/rf ./internal/randutil > /dev/null
echo "    -tags purego (assembly tier compiled out)"
go build -tags purego ./...
go vet -tags purego ./...
go test -tags purego -count=1 ./internal/kernels ./internal/core ./internal/dsp ./internal/analog ./internal/rf ./internal/randutil > /dev/null

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
# path; the separable demapper and EVM are pinned to their exhaustive
# oracles, and the batched sweep to goldens recorded from the serial packet
# loop. The `go test -list` guard makes a silent skip impossible: if a
# build-tag or rename ever removes the tests from the compiled set, the gate
# fails loudly instead of passing on an empty run.
echo "==> batch-equivalence differential suite"
batch_pat='Batch.*(Matches|Invariant)|Matches.*Batch|DeferredBatch|DemapSoftSeparable|EVMSeparable|SweepBatch|FillNormPairsMatches|LNASweepGolden|RunMatchesSequentialOracle|ReceiverMatchesOracle|AGCProcessMatchesOracle'
for pkg in ./internal/kernels ./internal/dsp ./internal/randutil ./internal/rf \
           ./internal/phy ./internal/phy/viterbi ./internal/rxdsp ./internal/measure ./internal/sim ./internal/core; do
    n="$(go test -run '^$' -list "$batch_pat" "$pkg" | grep -c '^Test' || true)"
    if [ "$n" -eq 0 ]; then
        echo "FAIL: $pkg lists no batch-equivalence tests matching '$batch_pat' (silent skip)" >&2
        exit 1
    fi
    echo "    $pkg: $n batch-equivalence tests"
    go test -run "$batch_pat" -count=1 "$pkg" > /dev/null
done
# The LNA lanes (Figure 6 and IP3 sweeps): the rf lane differential test, the
# core lane-vs-Bench.Run differential test and the sweep golden recorded from
# the point-by-point sweeps must all be compiled in.
lna_pat='BatchReceiverLNALanesMatchSequential|LNABatchMatchesSequential|LNASweepGolden'
n="$(go test -run '^$' -list "$lna_pat" ./internal/rf ./internal/core | grep -c '^Test' || true)"
if [ "$n" -lt 3 ]; then
    echo "FAIL: only $n of 3 LNA-lane tests match '$lna_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/rf, internal/core: $n LNA-lane differential/golden tests"
# The one packet loop: Bench.Run is a one-lane group of RunBenchBatch's loop,
# pinned to the sequential loop it replaced, which lives on as the oracle in
# internal/core/oracle_test.go.
n="$(go test -run '^$' -list 'TestRunMatchesSequentialOracle' ./internal/core | grep -c '^TestRunMatchesSequentialOracle$' || true)"
if [ "$n" -ne 1 ]; then
    echo "FAIL: internal/core does not list TestRunMatchesSequentialOracle (silent skip)" >&2
    exit 1
fi
echo "    internal/core: Bench.Run vs the sequential-loop oracle"
# One behavioral front end: rf.Receiver's calls are one-lane calls of its
# lane receiver, and AGC.Process a one-lane call of the lane AGC loop, both
# pinned to the sequential chain they replaced, per packet and streamed in
# frames without a Reset between them. The chain lives on as the oracle in
# internal/rf/oracle_test.go (also the reference of the rf lane
# differential tests above). Amplifier.Process and Mixer.Process, one-lane
# calls of the amplifier and mixer lane bodies, are pinned to ProcessSample
# loops over streamed frames, and the two mixers' interleaved LO fill
# (prefillLOPair, which the oracle calls too) to two LO.Next streams.
rf_oracle_pat='TestReceiverMatchesOracle|TestAGCProcessMatchesOracle|TestAmplifierProcessMatchesPerSample|TestMixerProcessMatchesPerSample|TestLOPairFillMatchesNext'
n="$(go test -run '^$' -list "$rf_oracle_pat" ./internal/rf | grep -cxE "$rf_oracle_pat" || true)"
if [ "$n" -ne 5 ]; then
    echo "FAIL: internal/rf lists only $n of the 5 tests matching '$rf_oracle_pat' (silent skip)" >&2
    exit 1
fi
go test -run "^($rf_oracle_pat)\$" -count=1 ./internal/rf > /dev/null
echo "    internal/rf: Receiver and AGC.Process vs the sequential-chain oracle, Amplifier/Mixer.Process vs ProcessSample, the LO pair fill vs LO.Next"
# One sweep body: every single-series sweep (Figure 5, Figure 6 / IP3, the
# SNR waterfall on every front end, EVM vs SNR) runs its points as lane
# groups of sim.Sweep's one entry. TestSweepBatchGolden's table pins them to
# digests recorded from the point-by-point sweep path it replaced: the
# batched and Batch 0/1 behavioral waterfalls, the ideal and co-sim
# waterfalls and EVMvsSNR.
sweep_pat='SweepBatchGolden|FilterSweepGolden|LNASweepGolden|GoldenBERBatchingInvariant'
n="$(go test -run '^$' -list "$sweep_pat" ./internal/core | grep -c '^Test' || true)"
if [ "$n" -lt 4 ]; then
    echo "FAIL: only $n of 4 sweep golden tests match '$sweep_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/core: $n sweep golden tests (every sweep on lane groups)"
go test -run "$sweep_pat" -count=1 ./internal/core > /dev/null

# Co-sim front end. The analog solver streams each frame in blocks: a drive
# stage computes the up-converted RF input (the upsampler's grid-confined
# overlap-save transforms) and the LO bank (on the Sincos kernel) one block
# ahead of the circuit recurrence (the CTSolve kernel); its output is pinned
# bit for bit by digests recorded from the per-sample solver (waveform and
# end-to-end packets), by differential tests against the per-sample oracle
# and the whole-frame upsampler, and by the CTSolve kernel's differential
# tests against its Go twin. The circuit parameters come from the
# behavioral line-up (analog.ConfigFor): the mapping's reflection test, the
# pinned defaults, the block-level LNA and Chebyshev cross tests and the
# gate that co-sim and black-box sweeps respond to their parameter join the
# suite. The `go test -list` guard makes a silent skip impossible; the named
# re-run under -race exercises the drive-stage goroutine's hand-over on
# every covered frame shape.
echo "==> co-sim golden and differential suite"
cosim_pat='CoSimGolden|MatchesOracle|StepsMatchUnhoisted|UpsamplerStreamMatchesFIR|CTSolveAsmMatchesGo|CTSolveMatchesGoBothTiers|CTSolverLayout|ConfigForCoversReceiverConfig|DefaultFrontEndConfigPinned|CircuitLNAMatchesBehavioral|CircuitChebyshevMatchesBehavioral|CircuitSweepsRespond'
n="$(go test -run '^$' -list "$cosim_pat" ./internal/analog ./internal/core ./internal/dsp ./internal/kernels | grep -c '^Test' || true)"
want=11
if [ "$(go env GOARCH)" = "amd64" ]; then
    want=13 # plus the asm-tier twin and layout tests
fi
if [ "$n" -lt "$want" ]; then
    echo "FAIL: only $n co-sim golden/differential tests match '$cosim_pat' (silent skip)" >&2
    exit 1
fi
echo "    internal/analog, internal/core, internal/dsp, internal/kernels: $n co-sim golden/differential tests"
go test -race -run "$cosim_pat" -count=1 ./internal/analog ./internal/core ./internal/dsp ./internal/kernels > /dev/null

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
# Each gate names its tests and the number it expects; the `go test -list`
# guard makes a silent skip impossible: a renamed or deleted test fails the
# gate instead of passing on an empty run.
echo "==> allocation gates"
alloc_gate() {
    want="$1"
    pat="$2"
    shift 2
    n="$(go test -run '^$' -list "$pat" "$@" | grep -c '^Test' || true)"
    if [ "$n" -lt "$want" ]; then
        echo "FAIL: $* list only $n of $want allocation tests matching '$pat' (silent skip)" >&2
        exit 1
    fi
    go test -run "$pat" -count=1 "$@"
}
alloc_gate 7 'AllocFree|TestFIRProcessSteadyStateAllocs' \
    ./internal/phy ./internal/phy/viterbi ./internal/dsp ./internal/randutil
alloc_gate 1 'TestPacketRunAllocBounded' ./internal/core
# The lane receiver's two entries: from the pre-filter waveform and from the
# antenna, the latter also with per-lane LNAs; and the amplifier's and
# mixer's one-lane frame calls.
alloc_gate 4 'TestFilterLanesAllocFree|TestBatchReceiverProcessIntoAllocFree|TestBatchReceiverLNALanesAllocFree|TestAmplifierMixerProcessAllocFree' ./internal/rf
alloc_gate 1 'TestEVMAllocFree' ./internal/measure
alloc_gate 1 'TestFrontEndProcessAllocs' ./internal/analog
alloc_gate 2 'TestSweepExecutorBuffersPooled|TestSweepScratchPooledAcrossConcurrentExecutes' ./internal/sim

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
go test -run '^$' -bench 'BenchmarkBatchReceiverFromFilter|BenchmarkBatchReceiverProcessInto|BenchmarkProcessFromFilter|BenchmarkAGCLanes' -benchtime 1x ./internal/rf > /dev/null
go test -run '^$' -bench 'BenchmarkEVM' -benchtime 1x ./internal/measure > /dev/null
go test -run '^$' -bench 'BenchmarkTable2_CoSimulation' -benchtime 1x . > /dev/null

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

echo "OK: build, vet, wlanlint, escape gate, race tests, dispatch tiers, coverage floors, co-sim suite, service gates, daemon smoke, alloc gates, bench smoke, regression gate and fuzz all clean"
