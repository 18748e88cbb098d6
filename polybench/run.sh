#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash polybench/run.sh --workload fed-small --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) goes under .bench_build in the current directory. Without the
# repository's own sources beside it the build fails and so does this
# script.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$build/polybench" .)
exec "$build/polybench" --out-dir "$build" "$@"
