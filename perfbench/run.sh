#!/usr/bin/env bash
# Builds copydetectd and the benchmark from the sources of this checkout,
# then runs one workload. From the repository root:
#
#   bash perfbench/run.sh --workload stream-stock --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run data stay in .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/bin"
go build -o "$out/bin/copydetectd" ./cmd/copydetectd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
# Flush the build's (and earlier runs') writes, so they do not slow the
# fsyncs this run measures.
sync
exec "$out/bin/perfbench" "$@"
