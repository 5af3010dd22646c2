#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload batch-2k --seed 1 --seconds 10 --trace 0
#
# Every build cache, binary and scratch directory stays under .bench_build/
# at the repository root, so a run reads and writes nothing outside the
# checkout and never reaches the network. Arguments pass through to the
# harness (bench/README.md lists them).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
# XDG_CONFIG_HOME moves the go command's telemetry counters in as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
