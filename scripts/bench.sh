#!/usr/bin/env bash
# Benchmark runner — builds the Release bench tree, runs the JSON
# regression harnesses at full sizes, and *compares* the fresh numbers
# against the committed baselines at the repo root with a tolerance
# band, failing on regression.  Two suites:
#
#   kernels     bench_kernels    vs BENCH_kernels.json     (2% band)
#   substrates  bench_substrates vs BENCH_substrates.json  (10% band)
#
# The kernels suite is CPU-bound and quiet; the substrates suite times
# multi-threaded mini-MPI runs, so individual rows jitter — its wider
# default band still gates real regressions because the compared
# quantity is the geomean over all rows, which is stable.
#
# Usage: scripts/bench.sh                      # both suites: run + compare
#        scripts/bench.sh --suite substrates   # one suite only
#        scripts/bench.sh --update             # refresh the committed baseline(s)
#        scripts/bench.sh --tolerance 0.05     # override the band for all suites
#        scripts/bench.sh -- [args...]         # raw passthrough to the harness(es)
#   e.g. scripts/bench.sh --suite kernels -- --tiny   # smoke sizes, no comparison

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
DIR="$ROOT/build-bench"

SUITE=all
UPDATE=0
TOLERANCE=""
PASSTHROUGH=()
HAVE_PASSTHROUGH=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --suite) SUITE="$2"; shift 2 ;;
    --update) UPDATE=1; shift ;;
    --tolerance) TOLERANCE="$2"; shift 2 ;;
    --) shift; PASSTHROUGH=("$@"); HAVE_PASSTHROUGH=1; break ;;
    *) echo "unknown arg '$1' (use -- to pass args to the harness)" >&2; exit 2 ;;
  esac
done

case "$SUITE" in
  kernels) SUITES=(kernels) ;;
  substrates) SUITES=(substrates) ;;
  all) SUITES=(kernels substrates) ;;
  *) echo "unknown suite '$SUITE' (expected: kernels, substrates, all)" >&2; exit 2 ;;
esac

cmake -B "$DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DPEACHY_BUILD_BENCH=ON -DPEACHY_BUILD_TESTS=OFF -DPEACHY_BUILD_EXAMPLES=OFF
for s in "${SUITES[@]}"; do
  cmake --build "$DIR" --target "bench_$s" -j "$JOBS"
done

default_tolerance() {
  case "$1" in
    kernels) echo 0.02 ;;
    substrates) echo 0.10 ;;
  esac
}

status=0
for s in "${SUITES[@]}"; do
  BIN="$DIR/bench/bench_$s"
  BASELINE="$ROOT/BENCH_$s.json"

  if [ "$HAVE_PASSTHROUGH" -eq 1 ]; then
    echo "==== [$s] passthrough ===="
    "$BIN" "${PASSTHROUGH[@]}" || status=$?
    continue
  fi

  if [ "$UPDATE" -eq 1 ]; then
    "$BIN" --out "$BASELINE"
    echo "baseline refreshed: $BASELINE"
    continue
  fi

  if [ ! -f "$BASELINE" ]; then
    echo "no committed baseline at $BASELINE — run 'scripts/bench.sh --update' first" >&2
    exit 2
  fi

  FRESH="$DIR/bench/BENCH_${s}_fresh.json"
  "$BIN" --out "$FRESH"
  TOL="${TOLERANCE:-$(default_tolerance "$s")}"
  echo "==== [$s] compare (tolerance $TOL) ===="
  python3 "$ROOT/scripts/bench_compare.py" "$BASELINE" "$FRESH" --tolerance "$TOL" || status=$?
done
exit "$status"
