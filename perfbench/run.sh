#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mnist --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build and module caches, temporary build
# directories, toolchain telemetry) stays under .bench_build in the
# current directory, so a run reads and writes nothing outside it. The
# build needs the milr module one directory up; without it the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/milr-perfbench" .)
exec "$build/milr-perfbench" "$@"
