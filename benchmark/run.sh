#!/usr/bin/env bash
# Builds the harness from source and runs it from the root of the checkout.
# Everything the build and the run write stays under .bench_build there.
#
#   bash benchmark/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	# A build cache of the checkout's own: the first build in a fresh
	# checkout compiles the standard library's share too (about a minute).
	export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	go build -o "$build/focus-benchmark" .
)
cd "$root"
exec "$build/focus-benchmark" "$@"
