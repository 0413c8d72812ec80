#!/usr/bin/env bash
# Counts flaky test failures instead of eyeballing them.  Runs the ctest
# suite (`ctest -j4`) RUNS times in each build directory and prints, for
# every ctest entry that failed at least once, how many runs it failed on
# each side.  With two build directories the runs alternate (A, B, A, B,
# …), so both sides share the same host load; the usual pair is a build of
# a base commit against a build of a change to it.  Failing entries are
# read from each run's Testing/Temporary/LastTestsFailed.log.
#
# -j J runs ctest with J jobs (default 4), and -R REGEX runs only the
# entries it matches (default: all; a regex that matches nothing fails
# every run).  Some flakes show only on a quiet host, so `-j 1 -R ENTRY`
# counts unloaded runs of one entry.
#
# Usage: scripts/flake_count.sh [-j J] [-R REGEX] RUNS BUILD_DIR [BUILD_DIR_B]
#   scripts/flake_count.sh 200 build                # one side
#   scripts/flake_count.sh 30 ../base/build build   # base vs change
#   scripts/flake_count.sh -j 1 -R smr_recovery_transport 30 ../base/build build
# Exit status: 0 iff no run failed.
set -euo pipefail

usage() {
  echo "usage: $0 [-j J] [-R REGEX] RUNS BUILD_DIR [BUILD_DIR_B]" >&2
  exit 2
}
JOBS=4
REGEX=""
while getopts "j:R:" opt; do
  case "${opt}" in
    j) JOBS=${OPTARG} ;;
    R) REGEX=${OPTARG} ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[[ "${JOBS}" =~ ^[1-9][0-9]*$ ]] || usage
CTEST_ARGS=(-j "${JOBS}" --no-tests=error)
[[ -z "${REGEX}" ]] || CTEST_ARGS+=(-R "${REGEX}")
[[ $# -eq 2 || $# -eq 3 ]] || usage
[[ "$1" =~ ^[1-9][0-9]*$ ]] || usage
RUNS=$1
shift
DIRS=("$@")
for dir in "${DIRS[@]}"; do
  if [[ ! -f "${dir}/CTestTestfile.cmake" ]]; then
    echo "${dir}: not a configured ctest build directory" >&2
    exit 2
  fi
done

declare -A FAILS=()  # "<side>:<entry>" -> failed runs
declare -A SEEN=()
ENTRIES=()           # every entry that failed, in first-seen order
BAD_RUNS=()          # per side: runs with at least one failure
for side in "${!DIRS[@]}"; do BAD_RUNS[side]=0; done

for ((run = 1; run <= RUNS; ++run)); do
  for side in "${!DIRS[@]}"; do
    dir=${DIRS[side]}
    log="${dir}/Testing/Temporary/LastTestsFailed.log"
    rm -f "${log}"
    if (cd "${dir}" && ctest "${CTEST_ARGS[@]}" >/dev/null 2>&1); then
      continue
    fi
    BAD_RUNS[side]=$((BAD_RUNS[side] + 1))
    failed=()
    if [[ -f "${log}" ]]; then
      # One "<index>:<name>" line per failing entry.
      while IFS=: read -r _ entry; do
        [[ -n "${entry}" ]] && failed+=("${entry}")
      done < "${log}"
    fi
    [[ ${#failed[@]} -gt 0 ]] || failed=("(ctest failed, no log)")
    for entry in "${failed[@]}"; do
      if [[ -z "${SEEN[${entry}]:-}" ]]; then
        SEEN[${entry}]=1
        ENTRIES+=("${entry}")
      fi
      FAILS[${side}:${entry}]=$((${FAILS[${side}:${entry}]:-0} + 1))
    done
  done
  echo "run ${run}/${RUNS}: failed runs so far ${BAD_RUNS[*]}" >&2
done

names=(A B)
echo "ctest -j ${JOBS}, -R ${REGEX:-(every entry)}, ${RUNS} runs per side"
for side in "${!DIRS[@]}"; do
  echo "  ${names[side]} = ${DIRS[side]}: ${BAD_RUNS[side]}/${RUNS} runs failed"
done
printf '%-40s' "failures per entry"
for side in "${!DIRS[@]}"; do printf '%6s' "${names[side]}"; done
echo
for entry in "${ENTRIES[@]}"; do
  printf '%-40s' "${entry}"
  for side in "${!DIRS[@]}"; do
    printf '%6d' "${FAILS[${side}:${entry}]:-0}"
  done
  echo
done
[[ ${#ENTRIES[@]} -gt 0 ]] || echo "(none)"

for side in "${!DIRS[@]}"; do
  [[ ${BAD_RUNS[side]} -eq 0 ]] || exit 1
done
