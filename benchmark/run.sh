#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments from the repository root, e.g.
#
#   bash benchmark/run.sh --workload llm-long --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the Go tool's own config (telemetry
# counters) and traced runs' span files live under .bench_build/, so a
# run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/neu10-benchmark" .)
exec "$out/neu10-benchmark" "$@"
