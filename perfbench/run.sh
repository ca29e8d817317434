#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Every build output (binary, Go build cache, temp files)
# stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload small-fit --seed 1 --seconds 30 --trace 0
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
