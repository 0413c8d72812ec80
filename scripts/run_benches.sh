#!/usr/bin/env bash
# Builds and runs the JSON-emitting benchmarks, writing the machine-readable
# artifacts at the repo root (BENCH_<id>.json per manifest row below).
#
# Every binary encodes its acceptance headline in the exit status
# (e15: cache speedup ≥ 3× at n=7 rounds=10; e17: threads W4B4 ≥ 2× the
# W1B1 commits/sec; e18: checkpointing retains ≥ 60% throughput and every
# kill/restart rejoins; e19: the W4B4 median ≥ 1.5× the W1B1
# E17-configuration baseline at n=7/n=10 on both wall-clock substrates;
# e20: every rep of every client
# cell settles its whole script exactly once and every overload rep sheds
# with BUSY while queue_peak stays within n × max_pending), so this
# script fails loudly on a regression.
#
# Usage: scripts/run_benches.sh [--only eNN] [build-dir]
#   scripts/run_benches.sh               # every manifest row
#   scripts/run_benches.sh --only e19    # just the ingest-path bench
set -euo pipefail

cd "$(dirname "$0")/.."

ONLY=""
BUILD_DIR=build
while [[ $# -ge 1 ]]; do
  case "$1" in
    --only)
      [[ $# -ge 2 ]] || { echo "--only needs an experiment id (e.g. e19)" >&2; exit 2; }
      ONLY="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done

# Manifest: one row per acceptance-carrying benchmark — "<id> <binary>".
# The artifact is BENCH_<id>.json; extra per-bench flags go after the
# binary name.  Adding an experiment = adding a row.
MANIFEST=(
  "e15 bench_e15_cert_fastpath"
  "e17 bench_e17_pipeline"
  "e18 bench_e18_recovery"
  "e19 bench_e19_ingest"
  "e20 bench_e20_client"
)

TARGETS=()
for row in "${MANIFEST[@]}"; do
  read -r id binary _ <<< "${row}"
  [[ -n "${ONLY}" && "${id}" != "${ONLY}" ]] && continue
  TARGETS+=("${binary}")
done
if [[ ${#TARGETS[@]} -eq 0 ]]; then
  echo "no manifest row matches --only ${ONLY}" >&2
  exit 2
fi

cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TARGETS[@]}"

for row in "${MANIFEST[@]}"; do
  read -r id binary flags <<< "${row}"
  [[ -n "${ONLY}" && "${id}" != "${ONLY}" ]] && continue
  echo
  echo "=== ${id}: ${binary} → BENCH_${id}.json ==="
  # shellcheck disable=SC2086
  "./${BUILD_DIR}/bench/${binary}" --out "BENCH_${id}.json" ${flags:-}
done
