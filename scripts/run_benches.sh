#!/usr/bin/env bash
# Builds and runs the JSON-emitting benchmarks, writing the machine-readable
# artifacts at the repo root (BENCH_<id>.json per manifest row below).
#
# Every binary encodes its acceptance headline in the exit status
# (e15: median cache speedup ≥ 3× at n=7 rounds=5; e17: the W4B4 median
# commits/sec ≥ 2× the W1B1 median on threads at n=4, and ≥ 1.5× at n=7
# and n=10 on threads and tcp; e18: checkpointing retains ≥ 60% throughput
# and every kill/restart rejoins; e20: every rep of every client
# cell settles its whole script exactly once and every overload rep sheds
# with BUSY while queue_peak stays within n × max_pending), so this
# script fails loudly on a regression.
#
# Usage: scripts/run_benches.sh [--only eNN] [build-dir]
#   scripts/run_benches.sh               # every manifest row
#   scripts/run_benches.sh --only e17    # just the pipelining bench
set -euo pipefail

cd "$(dirname "$0")/.."

ONLY=""
BUILD_DIR=build
while [[ $# -ge 1 ]]; do
  case "$1" in
    --only)
      [[ $# -ge 2 ]] || { echo "--only needs an experiment id (e.g. e17)" >&2; exit 2; }
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
