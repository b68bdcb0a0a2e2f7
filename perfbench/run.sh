#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tiny-flood --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, temporary files)
# stays under .bench_build in the current directory. The build needs the
# e2edt module one directory above perfbench, so outside a full checkout
# it fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# Default GC settings: the garbage collector's cost is part of what the
# benchmark measures.
unset GOGC GODEBUG GOMEMLIMIT GOMAXPROCS

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
