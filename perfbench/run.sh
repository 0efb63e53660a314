#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments (see perfbench/README.md). Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload dense-eu --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/cache"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/cache/go-build" GOMODCACHE="$out/cache/mod" GOPATH="$out/cache/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/cache/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
