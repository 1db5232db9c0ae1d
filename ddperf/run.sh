#!/usr/bin/env bash
# Builds the ddperf benchmark from source and runs it. Run from the root of
# the repository (or of an exported copy of it):
#
#   bash ddperf/run.sh --workload mix-steady --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the result files and
# the span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/ddperf"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C "$root/ddperf" build -buildvcs=false -o "$out/ddperf" . >&2
exec "$out/ddperf" --out "$out" --commit "$commit" "$@"
