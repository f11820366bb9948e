#!/usr/bin/env bash
# Builds the benchmark from the source tree this script sits in, then
# runs it with the given arguments, for example:
#
#   bash benchmark/run.sh --workload fig10-relaxed --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays in .bench_build at the root of the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
