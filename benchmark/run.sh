#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source inside the checkout and
# runs it. The benchmark is a module of its own (benchmark/go.mod) that takes
# the library from the checkout it stands in. Everything go writes (build
# cache, module cache, temporary files, its config) is kept under .bench_build
# at the root of the checkout — the build directory the driver itself names —
# so that nothing outside the checkout is touched.
#
#   bash benchmark/run.sh --workload hks_n16 --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The commit is stamped by hand and the build told not to look for one: go's
# own VCS stamping fails the whole build where git refuses the directory (a
# checkout owned by another user, or no repository at all).
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
# -mod=mod: should the library's go.mod ever ask for a newer go line than
# benchmark/go.mod has, the build raises it in the checkout and goes on.
go -C benchmark build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/anaheim-benchmark" .
exec "$build/anaheim-benchmark" "$@"
