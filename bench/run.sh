#!/usr/bin/env bash
# The BENCHMARK.json command: builds the harness from this checkout and
# runs it from the repository root. Every Go cache and temporary file
# stays under .bench_build, so the run reads and writes nothing outside
# the checkout and needs neither $HOME nor the network.
set -euo pipefail
if [ ! -f bench/go.mod ] || [ ! -f cmd/caltrain-serve/main.go ]; then
	echo "bench/run.sh: run from the root of a caltrain checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/bin/caltrain-benchmark" .
exec "$build/bin/caltrain-benchmark" "$@"
