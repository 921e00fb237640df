#!/usr/bin/env bash
# Builds rrrd and the benchmark program from the checkout's sources, then
# runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output and Go cache lives
# under .bench_build/ in that root, so nothing outside the checkout is
# read or written beyond the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOSUMDB=off CGO_ENABLED=0

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rrrd" ]]; then
	echo "perfbench: run from the root of an rrr checkout (no go.mod or cmd/rrrd here)" >&2
	exit 2
fi
mkdir -p "$build/bin"
# Rebuilt on every invocation; with the cache warm this is a no-op link
# check, and it guarantees the binaries match the checkout's sources.
go build -o "$build/bin/rrrd" ./cmd/rrrd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
