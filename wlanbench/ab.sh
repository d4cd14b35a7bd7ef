#!/usr/bin/env bash
# A/B of two commits with identical benchmark code. Run from the repository
# root:
#
#   bash wlanbench/ab.sh <base-rev> <head-rev> <workload> [pairs] [seconds]
#
# Both revisions are exported with git archive under $CARGO_TARGET_DIR/ab
# (default .bench_build/ab), and this checkout's wlanbench/ and
# BENCHMARK.json are copied over each, so only the simulator differs. Pair i
# runs both sides with seed i, alternating which side runs first. The
# summary prints each end-to-end metric's medians and quartiles, the pairs
# the head won, and a verdict; it refuses runs whose environment stamps
# (kernel tier, OFDM path, processor count, CPU model) differ. The raw
# report and result lines stay in base.jsonl and head.jsonl.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <base-rev> <head-rev> <workload> [pairs] [seconds]" >&2
	exit 2
fi
base_rev=$1 head_rev=$2 workload=$3 pairs=${4:-10} seconds=${5:-10}

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
ab="$out/ab"
rm -rf "$ab"
mkdir -p "$ab"

for side in base head; do
	rev=$base_rev
	[ "$side" = head ] && rev=$head_rev
	mkdir -p "$ab/$side"
	git -C "$root" archive "$rev" | tar -x -C "$ab/$side"
	rm -rf "$ab/$side/wlanbench"
	cp -R "$bench_dir" "$ab/$side/wlanbench"
	cp "$root/BENCHMARK.json" "$ab/$side/"
done

run_side() {
	(cd "$ab/$1" && CARGO_TARGET_DIR="$ab/build-$1" bash wlanbench/run.sh \
		--workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 2) >>"$ab/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side base "$i"
		run_side head "$i"
	else
		run_side head "$i"
		run_side base "$i"
	fi
	echo "pair $i/$pairs done" >&2
done

WLANBENCH_ROOT="$root" "$ab/build-head/wlanbench" --ab "$ab/base.jsonl,$ab/head.jsonl"
