#!/usr/bin/env bash
# Fails when the arm64 build of cmd/ereeserve fuses a multiply and an add
# anywhere in the dataset generation path.
#
#   scripts/arm64_fma.sh
#
# Go may compile x*y + z into one fused multiply-add on arm64 (FMADD and
# kin), which rounds once where amd64 rounds twice, so a generated
# dataset could differ between the two. Generation code rounds each such
# product with an explicit float64(...) conversion; this check
# cross-compiles the server, disassembles it, and lists every fused
# instruction in a guarded function: any repro/internal/lodes function,
# and any method of dist.Stream, dist.LogNormal, dist.Pareto or
# dist.SkewedSize (inlined callees are attributed to their caller, so
# generation code inlined elsewhere in lodes is covered too).
#
# The noise path is not guarded yet (ROADMAP item 7(c)). Its fused sites
# in the parent build were dist.GenCauchy.sf (8),
# dist.GenCauchy.quantileTail (7), dist.gcTable.func1 (2),
# dist.GenCauchy.quantileTailBracketed (1), smooth.Release (1),
# mech.smoothScaleCells (1) and mech.NewLogLaplace (1).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GOARCH=arm64 go build -o "$tmp/ereeserve" ./cmd/ereeserve
go tool objdump "$tmp/ereeserve" >"$tmp/ereeserve.dis"

guarded='^repro/internal/lodes\.|^repro/internal/dist\.(\(\*)?(Stream|LogNormal|Pareto|SkewedSize)\)?\.'
fused=$(awk -v guarded="$guarded" '
  /^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
  fn ~ guarded && /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)/ { print fn ": " $0 }
' "$tmp/ereeserve.dis")
if [[ -n $fused ]]; then
  echo "fused multiply-add in the arm64 dataset generation path:" >&2
  echo "$fused" >&2
  exit 1
fi
echo "arm64: no fused multiply-add in the dataset generation path"
