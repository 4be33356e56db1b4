#!/usr/bin/env bash
# Builds the KARYON benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload radio-5k --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, the toolchain's temp and config
# directories, the binary, and the benchmark's own scratch and span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local \
	TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
