#!/usr/bin/env bash
# Canonical benchmark regeneration for BENCH_baseline.json,
# BENCH_scan_kernel.json, BENCH_release_path.json, BENCH_incremental.json,
# BENCH_serve.json and BENCH_multicore.json (BENCH_serve.json's
# end-to-end load numbers come from scripts/serve_smoke.sh -record). The
# JSON files' numbers come from this script's flags — never from ad-hoc
# invocations — so recorded runs stay comparable across PRs:
#
#   micro suite:        go test -run '^$' -bench . -benchtime 2s .
#   paper-scale suite:  EREE_LARGE_BENCH=1 go test -run '^$' \
#                         -bench BenchmarkLargeScale -benchtime 20x .
#   multicore sweep:    go test -run '^$' -bench <scan+release set> \
#                         -benchtime 2s -cpu 1,2,4,8 .
#   national suite:     EREE_NATIONAL_BENCH=1 go test -run '^$' \
#                         -bench BenchmarkNational -benchtime 1x .
#
# Usage: scripts/bench.sh [-multicore] [-national] [output-file]
#
# Default (no mode flag): micro + serving + paper-scale suites; copy the
# ns/op numbers into the JSON files by hand afterwards. The CI gate
# (scripts/benchgate) compares future runs against the committed "gate"
# sections.
#
# -multicore: runs the scan-kernel and release-path benchmarks across
# GOMAXPROCS 1,2,4,8 and rewrites BENCH_multicore.json via
# `scripts/benchgate -emit-multicore` (scaling curves, per-core-count
# gates, and the recording host's core-count caveat). Sweep columns
# above the host's NumCPU measure oversubscription, not scaling — the
# emitted environment block says so.
#
# -national: runs the chunk-streamed national-scale suite (~7M
# establishments, ~130M jobs; one op is a full pass over the relation,
# so -benchtime 1x and expect minutes per benchmark).
#
# The paper-scale suite generates the lodes.LargeConfig() dataset (~500k
# establishments, ~10M jobs) once per process — expect tens of seconds
# of setup before the first LargeScale benchmark reports.
#
# Recording-host caveat: the *Concurrent benchmarks (b.RunParallel), the
# sequential-vs-parallel release pair, and every multicore sweep column
# are meaningful only relative to the recording host's core count.
# BENCH_release_path.json's environment block states the host's
# GOMAXPROCS and BENCH_multicore.json's states NumCPU; when re-recording
# on a host with a different core count, update those blocks rather than
# mixing numbers across hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

multicore=0
national=0
while [[ $# -gt 0 && $1 == -* ]]; do
  case "$1" in
    -multicore) multicore=1 ;;
    -national) national=1 ;;
    *) echo "usage: scripts/bench.sh [-multicore] [-national] [output-file]" >&2; exit 2 ;;
  esac
  shift
done

if [[ $multicore -eq 1 ]]; then
  out="${1:-bench_multicore.txt}"
  echo "== multicore sweep (-benchtime 2s -cpu 1,2,4,8) ==" | tee "$out"
  go test -run '^$' \
    -bench 'BenchmarkMarginalComputeUnpacked$|BenchmarkReleaseBatch$|BenchmarkPublisherMarginalConcurrent$|BenchmarkReleaseCellsParallel$' \
    -benchtime 2s -cpu 1,2,4,8 -timeout 60m . | tee -a "$out"
  go run ./scripts/benchgate -emit-multicore BENCH_multicore.json -output "$out"
  echo
  echo "Wrote $out and BENCH_multicore.json (sweep, scaling curves, per-cpu gates,"
  echo "host caveat). Commit BENCH_multicore.json as the scaling record."
  exit 0
fi

if [[ $national -eq 1 ]]; then
  out="${1:-bench_national.txt}"
  echo "== national-scale suite (EREE_NATIONAL_BENCH=1, -benchtime 1x) ==" | tee "$out"
  EREE_NATIONAL_BENCH=1 go test -run '^$' -bench BenchmarkNational -benchtime 1x -timeout 120m . | tee -a "$out"
  echo
  echo "Wrote $out. One op of BenchmarkNationalStreamIngest is a full streamed"
  echo "pass over the ~130M-row national relation; its rows/s metric is the"
  echo "ingest throughput record."
  exit 0
fi

out="${1:-bench_output.txt}"

echo "== micro suite (-benchtime 2s) ==" | tee "$out"
go test -run '^$' -bench . -benchtime 2s -timeout 60m . | tee -a "$out"

echo "== serving suite (-benchtime 2s) ==" | tee -a "$out"
go test -run '^$' -bench . -benchtime 2s -timeout 60m ./cmd/ereeserve/server/ | tee -a "$out"

echo "== paper-scale suite (EREE_LARGE_BENCH=1, -benchtime 20x) ==" | tee -a "$out"
EREE_LARGE_BENCH=1 go test -run '^$' -bench BenchmarkLargeScale -benchtime 20x -timeout 60m . | tee -a "$out"

echo
echo "Wrote $out. Update BENCH_baseline.json / BENCH_scan_kernel.json /"
echo "BENCH_release_path.json / BENCH_incremental.json / BENCH_serve.json from"
echo "it. (The advance benchmarks replay a fixed 8-quarter delta chain per op —"
echo "see BENCH_incremental.json's chain_note before comparing per-quarter"
echo "numbers. BENCH_serve.json's end-to-end load numbers come from"
echo "scripts/serve_smoke.sh -record, not from this script. The multicore sweep"
echo "and national suite are separate modes: scripts/bench.sh -multicore /"
echo "-national.)"
