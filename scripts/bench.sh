#!/usr/bin/env bash
# Canonical benchmark runs for BENCH.json's trajectory section (its
# serving entry's end-to-end load numbers come from
# scripts/serve_smoke.sh -record). Recorded numbers come from this
# script's flags — never from ad-hoc invocations — so recorded runs stay
# comparable across changes:
#
#   micro suite:        go test -run '^$' -bench . -benchtime 2s .
#   paper-scale suite:  EREE_LARGE_BENCH=1 go test -run '^$' \
#                         -bench BenchmarkLargeScale -benchtime 20x .
#   national suite:     EREE_NATIONAL_BENCH=1 go test -run '^$' \
#                         -bench BenchmarkNational -benchtime 1x .
#
# Usage: scripts/bench.sh [-national] [output-file]
#
# Default (no mode flag): micro + serving + paper-scale suites; copy the
# numbers into BENCH.json's trajectory by hand afterwards. The CI gate
# (scripts/benchgate) reads only BENCH.json's gate section, which its
# own command regenerates (see BENCH.json's description).
#
# -national: runs the chunk-streamed national-scale suite (~7M
# establishments, ~130M jobs; one op is a full pass over the relation,
# so -benchtime 1x and expect minutes per benchmark).
#
# The paper-scale suite generates the lodes.LargeConfig() dataset (~500k
# establishments, ~10M jobs) once per process — expect tens of seconds
# of setup before the first LargeScale benchmark reports.
#
# Recording-host caveat: the *Concurrent benchmarks (b.RunParallel) and
# the sequential-vs-parallel release pair are meaningful only relative
# to the recording host's core count. Each trajectory entry's
# environment block states its host; when re-recording on another host,
# record a new entry rather than mixing numbers across hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

national=0
while [[ $# -gt 0 && $1 == -* ]]; do
  case "$1" in
    -national) national=1 ;;
    *) echo "usage: scripts/bench.sh [-national] [output-file]" >&2; exit 2 ;;
  esac
  shift
done

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
echo "Wrote $out. Record it in BENCH.json's trajectory. (The advance benchmarks"
echo "replay a fixed 8-quarter delta chain per op — see the incremental entry's"
echo "chain_note before comparing per-quarter numbers. The serving entry's"
echo "end-to-end load numbers come from scripts/serve_smoke.sh -record, not from"
echo "this script. The national suite is a separate mode: scripts/bench.sh -national.)"
