#!/usr/bin/env bash
# Builds the benchmark and thermod from the source tree this script sits in,
# then runs one benchmark invocation with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload fig11_grid --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and run artifact stays under the checkout:
# binaries and caches in .bench_build (or $CARGO_TARGET_DIR), traces and
# process logs in .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gomod" "$build/config" "$root/.bench_out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/thermod" thermometer/cmd/thermod >&2
cd "$root"
exec "$build/bin/perfbench" --out "$root/.bench_out" "$@"
