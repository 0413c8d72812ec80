#!/usr/bin/env bash
# Checks that two builds behave identically on the deterministic simulator.
#
#   scripts/sim_identity.sh PARENT_BUILD CHANGE_BUILD [ENTRY...]
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories (each holding
# examples/scenario_cli).  The script runs a fixed list of simulator
# scenarios with both builds, drops what reads the wall clock (the
# `"wall_us":N` field of the run-stats JSON and the smr mode's
# `commits/sec:` line; and `"client_busy_sent":N`, a key older builds
# still print, which always equalled client_sheds), and diffs the two
# outputs entry by entry.  The
# bft entries also write a delivery trace and print its fingerprint, so
# every delivery (time, sender, receiver, bytes) is compared, not only the
# totals; the campaign entry appends its JSON report, so every cell's
# checks and violations are compared, not only the summary.  Name entries
# to run a subset; `--list` prints the list.
#
# Exit status: 0 if every entry matched, 1 if any differed, 2 on a usage
# error.  Every entry gave identical output in two runs of one build before
# it joined the list.
set -euo pipefail

ENTRIES=(
  "bft-n4|bft --n 4 --f 1 --seed 1"
  "bft-n7|bft --n 7 --f 2 --seed 2"
  "corrupt-vector|bft --n 7 --f 2 --seed 3 --fault 2:corrupt-vector"
  "equivocate-p1|bft --n 4 --f 1 --seed 4 --fault 1:equivocate"
  "mute-coordinator|bft --n 4 --f 1 --seed 5 --fault 1:mute"
  "bad-signature|bft --n 7 --f 2 --seed 6 --fault 3:bad-signature"
  "future-round|bft --n 4 --f 1 --seed 7 --fault 2:future-round"
  "audit|bft --n 7 --f 2 --seed 8 --audit --fault 1:equivocate --fault 4:duplicate-next"
  "no-prune|bft --n 7 --f 2 --seed 9 --no-prune --turbulent --fault 1:mute"
  "rsa|bft --n 4 --f 1 --seed 10 --rsa --fault 3:wrong-round"
  "crash-hr|crash --n 5 --seed 1 --protocol hr --crash 1:0"
  "crash-ct|crash --n 5 --seed 2 --protocol ct --crash 1:0 --crash 3:20000"
  "smr-byz|smr --n 4 --backend byz --window 4 --batch 2 --commands 24 --checkpoint-interval 4 --restart 2:2000:40000"
  "smr-crash|smr --n 4 --backend crash --window 4 --batch 2 --commands 24 --checkpoint-interval 4 --restart 2:2000:40000"
  "smr-clients-byz|smr --n 4 --backend byz --window 4 --batch 2 --checkpoint-interval 8 --clients 4 --ops 200"
  "smr-clients-crash|smr --n 4 --backend crash --window 4 --batch 2 --checkpoint-interval 8 --clients 4 --ops 300 --restart 1:300000:600000"
  "smr-clients-crash-rejoin|smr --n 4 --backend crash --window 4 --batch 2 --checkpoint-interval 8 --clients 4 --ops 300 --restart 1:100000:200000"
  "smr-clients-inflight-byz|smr --n 4 --backend byz --window 4 --batch 2 --checkpoint-interval 8 --clients 4 --ops 50 --in-flight 4"
  "lockstep-n4|lockstep --n 4 --f 1 --rounds 8 --seed 1"
  "lockstep-n7|lockstep --n 7 --f 2 --rounds 10 --seed 3 --crash 7:0"
  "campaign|campaign --n 4 --f 1 --seeds 3 --substrates sim"
)

usage() {
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD [ENTRY...] | --list" >&2
  exit 2
}

if [[ "${1:-}" == "--list" ]]; then
  for entry in "${ENTRIES[@]}"; do
    printf '%-18s scenario_cli %s\n' "${entry%%|*}" "${entry#*|}"
  done
  exit 0
fi
[[ $# -ge 2 ]] || usage
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
shift 2
for build in "$PARENT" "$CHANGE"; do
  [[ -x "$build/examples/scenario_cli" ]] ||
    { echo "no examples/scenario_cli under $build" >&2; exit 2; }
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Runs one entry with one build inside its own directory (the trace and
# report files are relative, so their paths print the same for both
# builds) and writes the normalized output, exit status and campaign
# report included, to stdout.
run_entry() {
  local build=$1 dir=$2 args=$3
  mkdir -p "$dir"
  local extra=()
  [[ "$args" == bft* ]] && extra=(--trace trace.jsonl)
  [[ "$args" == campaign* ]] && extra=(--out report.json)
  local status=0
  # shellcheck disable=SC2086  # the argument list is split on purpose
  (cd "$dir" && "$build/examples/scenario_cli" $args "${extra[@]}") \
    > "$dir/raw" 2>&1 || status=$?
  sed -E -e 's/"wall_us":[0-9]+,?//' -e 's/"client_busy_sent":[0-9]+,?//' \
    -e '/^commits\/sec:/d' "$dir/raw"
  echo "exit status: $status"
  if [[ -f "$dir/report.json" ]]; then
    echo "report.json:"
    cat "$dir/report.json"
  fi
}

selected=("$@")
failed=0
ran=0
for entry in "${ENTRIES[@]}"; do
  name=${entry%%|*}
  args=${entry#*|}
  if [[ ${#selected[@]} -gt 0 ]] &&
     ! printf '%s\n' "${selected[@]}" | grep -qx -- "$name"; then
    continue
  fi
  ran=$((ran + 1))
  run_entry "$PARENT" "$WORK/parent/$name" "$args" > "$WORK/$name.parent"
  run_entry "$CHANGE" "$WORK/change/$name" "$args" > "$WORK/$name.change"
  if diff -u "$WORK/$name.parent" "$WORK/$name.change" > "$WORK/$name.diff"; then
    printf 'same  %s\n' "$name"
  else
    printf 'DIFF  %s\n' "$name"
    sed 's/^/      /' "$WORK/$name.diff"
    failed=$((failed + 1))
  fi
done

[[ $ran -gt 0 ]] || { echo "no entry matched: $*" >&2; exit 2; }
echo "sim identity: $((ran - failed))/$ran entries identical"
[[ $failed -eq 0 ]]
