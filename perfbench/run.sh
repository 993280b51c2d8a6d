#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# The Go build cache and every scratch file live under .bench_build in
# the checkout, so nothing outside it is written.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

if ! (cd perfbench && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
