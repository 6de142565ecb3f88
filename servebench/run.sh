#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs
# it with the given flags, from the checkout's root:
#
#   bash servebench/run.sh --workload eager --seed 1 --seconds 40 --trace 0
#
# Go's build cache and GOPATH, temporary files and the binary stay in the
# checkout, under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/servebench" ./servebench
exec "$build/servebench" "$@"
