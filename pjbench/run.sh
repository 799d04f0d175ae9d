#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# arguments given:
#
#   bash pjbench/run.sh --workload batch-joins --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the checkout. Every build product and scratch file
# (Go build cache, spill files, partition catalogs, span dumps, the
# exact-count ledger) stays under $CARGO_TARGET_DIR, .bench_build by default.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$root/pjbench" build -o "$build/pjbench" .
exec "$build/pjbench" --work-dir "$build/work" "$@"
