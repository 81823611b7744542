#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise. The last line of
# standard output is the JSON result; progress and the per-layer table go
# to standard error.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/sim" ]; then
    echo "perfbench: run from the repository root (no simulator sources in $root)" >&2
    exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/modcache"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOMODCACHE=$build/modcache
export HOME=$build/home
export XDG_CONFIG_HOME=$build/home
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
