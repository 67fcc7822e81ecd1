#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload crash-exhaustive --runs 10
#
# Everything the build and the runs write (Go build cache, binary, result
# store, spans, profiles) goes under $CARGO_TARGET_DIR, or .bench_build when
# that is unset.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the simulator's sources are missing" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --out "$out"
