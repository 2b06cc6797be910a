#!/usr/bin/env bash
# Benchmark guard: runs bench/ on a parent checkout and a change checkout in
# alternating pairs, then judges the change with bench -compare.
#
#   bash .github/bench-guard.sh PARENT_TREE CHANGE_TREE
#
# Each tree builds and runs its own bench/ (bench/run.sh). For every pair
# and workload both sides run once, the parent first in odd pairs and the
# change first in even ones, so drift of the host lands on both sides.
# The guard fails on
#   - any bench run that exits non-zero (a failed output check),
#   - any "worse" row of bench -compare (the change's median is worse than
#     the parent's by more than the metric's bound in BENCHMARK.json),
#   - bench -compare exit code 2 (mismatched config hashes, missing records).
# An "unresolved" row (either side's spread above the bound) is reported
# and does not fail: with the same commit on both sides, three guard runs
# on a 2-vCPU host read unresolved on 5, 2 and 0 of their 10 rows, so a
# guard failing on it would fail changes that changed nothing. bench
# -compare itself exits 1 on unresolved, so its exit code is not the
# verdict.
#
# When BENCHMARK.json or bench/ differ between the trees, the two sides
# measure different things: the guard still fails on a failed run, but
# prints the comparison for information only.
#
# Run records go to CHANGE_TREE/.bench_build/guard/{parent,change}.
set -euo pipefail

pairs=5
workloads=(sweep repeat)

if [ "$#" -ne 2 ]; then
	echo "usage: bash .github/bench-guard.sh PARENT_TREE CHANGE_TREE" >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
records="$change/.bench_build/guard"
rm -rf "$records"
mkdir -p "$records"

same_defs=1
if ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json" || ! diff -rq "$parent/bench" "$change/bench" >/dev/null; then
	same_defs=0
	echo "bench-guard: BENCHMARK.json or bench/ differs between parent and change;"
	echo "bench-guard: the two sides measure different things, so no verdict below is a regression."
fi

start=$SECONDS
for pair in $(seq 1 "$pairs"); do
	for w in "${workloads[@]}"; do
		sides=(parent change)
		if [ $((pair % 2)) -eq 0 ]; then
			sides=(change parent)
		fi
		for side in "${sides[@]}"; do
			tree="$parent"
			if [ "$side" = change ]; then
				tree="$change"
			fi
			log="$records/$side-$w-$pair.log"
			if ! bash "$tree/bench/run.sh" --workload "$w" --records "$records/$side" >"$log" 2>&1; then
				echo "bench-guard: FAIL: pair $pair $w on the $side exited non-zero:"
				cat "$log"
				exit 1
			fi
			echo "pair $pair $w $side: $(tail -n 1 "$log")"
		done
	done
done
echo "bench-guard: $pairs pairs of ${workloads[*]} ran in $((SECONDS - start)) s"

code=0
bash "$change/bench/run.sh" -compare "$records/parent" "$records/change" | tee "$records/compare.txt" || code=$?
if [ "$same_defs" -eq 0 ]; then
	echo "bench-guard: BENCHMARK.json or bench/ changed: the comparison above is for information only."
	exit 0
fi
if [ "$code" -eq 2 ]; then
	echo "bench-guard: FAIL: bench -compare could not judge the two sides (exit 2)."
	exit 1
fi
if grep -q ' worse (bound' "$records/compare.txt"; then
	echo "bench-guard: FAIL: the change is worse than the parent beyond the bound:"
	grep ' worse (bound' "$records/compare.txt"
	exit 1
fi
unresolved="$(grep -c ' unresolved (bound' "$records/compare.txt" || true)"
echo "bench-guard: ok: no row worse; $unresolved unresolved row(s), whose spread is too wide to judge, do not fail."
