#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload tune_ts --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, module cache, the binary) and every
# file a run writes stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
