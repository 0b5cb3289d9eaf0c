#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument is passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary store
# directories all live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

export TMPDIR="$build/tmp"
exec "$build/perfbench" "$@"
