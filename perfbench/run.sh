#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload fixpoint --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache and the binary live in
# .bench_build, so nothing is written outside the checkout, and the
# build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
