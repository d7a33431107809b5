#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; arguments pass through (see perfbench/main.go). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload msg-reply --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the checkout; no network is used.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$out/perfbench" --root "$root" --git-sha "$sha" "$@"
