#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload fleet-population --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run output stays inside
# the checkout, under .bench_build/ (the Go build cache included).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench-bin" .)
exec "$build/e2ebench-bin" "$@"
