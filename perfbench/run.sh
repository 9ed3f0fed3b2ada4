#!/usr/bin/env bash
# Builds turboflux-serve and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lsbench-bulk --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, Go's build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/turboflux-serve" ./cmd/turboflux-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/turboflux-serve" -work "$out/work" "$@"
