#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# checkout root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload scorecard --seed 11 --seconds 20 --trace 0
#
# The build cache and all scratch files stay inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" -build "$build" "$@"
