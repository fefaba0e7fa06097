#!/usr/bin/env bash
# Builds cmd/llmms and the benchmark from source, then runs the benchmark.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold_cpu --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare BASE.jsonl CHANGE.jsonl
#
# Build caches and run directories live under .bench_build/ in the
# current directory, so the benchmark writes nothing outside it.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's settings inside .bench_build/ as
# well. Telemetry is turned off there before the first go command: in its
# default mode the go command forks a detached upload process that would
# outlive the benchmark.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS= CGO_ENABLED=0 XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
(cd "$root" && go build -o "$out/llmms" ./cmd/llmms) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -llmms "$out/llmms" -work "$out/runs" "$@"
