#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload wire-mixed --seed 1 --seconds 50 --trace 0
#
# Run from the checkout root. Everything the build and the run write
# lands under .bench_build/ in the checkout: the Go build cache, module
# path and temporary files, and the toolchain's telemetry counters (kept
# under the user config directory, which XDG_CONFIG_HOME moves).
# A checkout without the parlist sources fails the build, so the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
