#!/usr/bin/env bash
# Builds lce-server, lce-router and the benchmark from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
# Keep the Go toolchain's caches, temporary files, and its config and
# telemetry directory (under XDG_CONFIG_HOME) inside the build directory.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(
	cd "$root/e2ebench"
	# With telemetry on (the default in a fresh config directory) every
	# go command may fork a detached telemetry sidecar that outlives it.
	# "go telemetry off" itself starts none.
	go telemetry off
	go build -o "$build/bin/" lce/cmd/lce-server lce/cmd/lce-router
	go build -o "$build/bin/e2ebench" .
) >&2
exec "$build/bin/e2ebench" --bin "$build/bin" --work "$build/runs" "$@"
