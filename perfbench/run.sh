#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tpch-olap --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# databases, span files) stays under .bench_build in the current directory.
# Outside a checkout of the engine (no ../go.mod next to this directory) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
