#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the checkout root. With no arguments it runs every
# workload once, each in its own process.
#
#   bash bench/run.sh --workload repeat --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh -compare runsA runsB
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/thorbench" .)
cd "$root"
if [ "$#" -eq 0 ]; then
	for w in sweep fresh repeat churn tier; do
		"$out/thorbench" --workload "$w"
	done
	exit 0
fi
exec "$out/thorbench" "$@"
