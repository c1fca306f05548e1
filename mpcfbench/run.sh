#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash mpcfbench/run.sh --workload cloud-compute --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)

# The benchmark module replaces the solver module with the checkout root;
# without the solver's sources next to it there is nothing to build.
if [ ! -f "$root/go.mod" ]; then
	echo "mpcfbench: no solver sources (go.mod) in $root" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac

# Keep every file the toolchain writes inside the checkout, and never
# reach for a network toolchain or module download.
export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"

(cd "$root/mpcfbench" && go build -o "$build/mpcfbench" .) >&2
exec "$build/mpcfbench" "$@"
