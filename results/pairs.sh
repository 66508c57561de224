#!/usr/bin/env bash
# Alternating parent/head benchmark pairs, one JSON line per run on stdout:
#
#   results/pairs.sh <parent-ref> <pairs> [workload...] > results/BENCH_<n>.jsonl
#   go run ./results/summarize results/BENCH_<n>.jsonl  > results/BENCH_<n>.md
#
# Both sides are measured as the acceptance driver measures them: the
# COMMITTED files of <parent-ref> and of HEAD, each unpacked with
# `git archive` into a directory of its own (under $PAIRS_DIR, default a
# fresh mktemp -d) and built there by bench/run.sh, build cache included.
# Odd pairs run the parent first, even pairs the head first; pair p runs
# `bash bench/run.sh --workload <w> --seed <p> --seconds 10 --trace 0
# --record` on both sides. Each output line names its side's commit id as
# "commit", keeps the run's result line as "result" and the full record
# printed before it as "record" (its
# "unbounded" host timings are what summarize shows ungated). Workloads
# default to all five of BENCHMARK.json. Progress goes to stderr. This
# file and its output live outside bench/, which a PR that claims a gain
# may not edit.
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 <parent-ref> <pairs> [workload...]" >&2; exit 2; }
parent_ref="$1"; pairs="$2"; shift 2
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(paged8 nodsm8 locks8 scale64 serve-mix)
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
dir="${PAIRS_DIR:-$(mktemp -d)}"
declare -A commit
for side in parent head; do
	ref=HEAD; [ "$side" = parent ] && ref="$parent_ref"
	commit[$side]="$(git -C "$root" rev-parse "$ref^{commit}")"
	rm -rf "$dir/$side" && mkdir -p "$dir/$side"
	git -C "$root" archive "$ref" | tar -x -C "$dir/$side"
	echo "$side = ${commit[$side]:0:7} in $dir/$side" >&2
done
run() { # side workload pair
	local out
	out="$(bash "$dir/$1/bench/run.sh" --workload "$2" --seed "$3" --seconds 10 --trace 0 --record 2>/dev/null | tail -n 2)"
	printf '{"workload":"%s","pair":%d,"side":"%s","commit":"%s","result":%s,"record":%s}\n' "$2" "$3" "$1" "${commit[$1]}" "$(tail -n 1 <<<"$out")" "$(head -n 1 <<<"$out")"
}
for w in "${workloads[@]}"; do
	for ((p = 1; p <= pairs; p++)); do
		order=(parent head); ((p % 2 == 1)) || order=(head parent)
		for side in "${order[@]}"; do
			echo "$w pair $p/$pairs: $side" >&2
			run "$side" "$w" "$p"
		done
	done
done
