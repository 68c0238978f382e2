#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload long-decode --seed 11 --seconds 50 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config,
# temporary files) stays under the build directory: $CARGO_TARGET_DIR
# when set, .bench_build otherwise. See perfbench/README.md.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
