#!/usr/bin/env bash
# Builds the wlanbench binary from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash wlanbench/run.sh --workload fig5_filter_sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR (default
# .bench_build) inside the repository: the Go build cache, temporary files,
# the binary, span files and the service's store directories. The last line of
# standard output is the result JSON; build output goes to standard error.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$bench_dir" && go build -trimpath -o "$out/wlanbench" .) >&2

export WLANBENCH_OUT="$out/wlanbench-out"
export WLANBENCH_COMMIT="$commit"
export WLANBENCH_ROOT="$root"
exec "$out/wlanbench" "$@"
