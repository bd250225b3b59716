#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) stays under .bench_build/perfbench.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
  GOTOOLCHAIN=local GOWORK=off GOMAXPROCS=2

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
