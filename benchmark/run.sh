#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, server state directories and trace
# files — stays under .bench_build/ in the current directory. Without the
# repository around benchmark/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/eree-bench" .)
exec "$out/eree-bench" -workdir "$out" "$@"
