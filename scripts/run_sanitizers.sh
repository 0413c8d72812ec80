#!/usr/bin/env bash
# Builds the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer
# and runs the full test suite under them, then rebuilds with
# ThreadSanitizer and reruns the concurrency-labelled subset.
#
# The transport chaos tests are the main ASan customers: they exercise
# concurrent reconnect/retransmit paths where lifetime bugs would hide.
# The certificate fast path is the other: Reader views alias decode
# buffers and certificates share immutable members, so bft_fastpath_test
# and perf_smoke_cert_fastpath (both in the default ctest set) run here to
# catch any dangling view or aliasing bug.
#
# The adversarial campaign (src/adversary/) runs here twice: the
# adversary_campaign_smoke/adversary_campaign_test ctest entries inside
# the full ASan suite, plus an explicit full-catalog sweep across all
# three substrates — mutation-fuzzed frames hammer the decoder with
# attacker-controlled bytes, exactly where an out-of-bounds read would
# hide from the happy-path tests.
#
# The TSan pass covers the wall-clock substrates — one node runtime
# (transport::Cluster) over two wires, in-memory mailbox pushes and
# TcpCluster's sockets: tests labelled `threads` or `tcp` — mailboxes,
# the delivery tap, Stats accumulation, the TCP receive loops handing
# frames to node mailboxes through Cluster::deliver, reconnect threads —
# where a data race would not crash but would silently corrupt an
# experiment.  wallclock_runtime_test runs the straggler audit, a
# kill/restart handoff and the all-stopped rule once per wire.  The SMR
# pipeline added smr_pipeline_test under the `threads` label: pipelined
# replicas on the threaded cluster, each checking every signature on its
# own node thread through its verified-signature cache.
# The recovery subsystem (label `recovery`) adds more: the STATE_RESP
# decode fuzz loop runs under ASan/UBSan inside the full suite, and
# smr_recovery_transport_test plus the recover-under-attack SMR cells
# (recovery_attack_test) carry the threads/tcp labels so the TSan pass
# exercises the node-thread dormancy loop, the restart handoff of
# actor/timers/rng, and each replica life building its own
# CachingVerifier.  Its kills fire on the victim's progress, so the
# pass also covers Cluster::crash_now on the victim's thread and the
# oracles reading the kill instant from the other node threads.
# The ingest path (docs/INGEST.md) adds epoll_chaos_test (label `tcp`),
# which drives the epoll receive loop through link kills, wire noise,
# slow-reader backpressure and burst batch dispatch.
# The client/service layer (docs/CLIENT.md) rides both passes:
# client_test and the SMR attack cells (client_chaos_test, labels
# `threads`/`tcp`) run checkpoint-forging, STATE_RESP-corrupting and
# reply-dropping/-delaying/-forging attackers against real client threads
# racing replica threads — retry timers, the reply certifier, the client
# table and BUSY shedding are all cross-thread state, so the TSan subset
# picks them up automatically.  The campaign smoke
# (adversary_campaign_smoke, labels `threads`/`tcp`) sweeps the same SMR
# cells on every substrate plus all four negative controls in both
# passes, and the explicit ASan/UBSan sweep below covers them too.
# TSan and ASan cannot share a build, so it uses its own build directory
# (build-tsan, -DMODUBFT_TSAN=ON).
#
# A failed build ends the script.  A failed test stage does not: the
# three test stages (ASan/UBSan ctest, the ASan/UBSan campaign sweep, TSan
# ctest) always all run, the script prints one status line per stage at
# the end, and it exits non-zero if any stage failed.
#
# Usage: scripts/run_sanitizers.sh [ctest-regex]
#   scripts/run_sanitizers.sh             # everything
#   scripts/run_sanitizers.sh tcp_chaos   # just the chaos tests
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-sanitize
TSAN_BUILD_DIR=build-tsan

STAGES=()
STATUSES=()
# Runs one test stage and records its exit status instead of stopping.
run_stage() {
  local name="$1"
  shift
  local status=0
  "$@" || status=$?
  STAGES+=("${name}")
  STATUSES+=("${status}")
}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMODUBFT_SANITIZE=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error: any report is a test failure, not a log line.
export ASAN_OPTIONS=halt_on_error=1:detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

if [[ $# -ge 1 ]]; then
  run_stage "ASan/UBSan ctest -R $1" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -R "$1"
else
  run_stage "ASan/UBSan ctest" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
  echo
  echo "=== Adversarial campaign under ASan/UBSan ==="
  run_stage "ASan/UBSan campaign sweep" \
    "${BUILD_DIR}/examples/scenario_cli" campaign --n 4 --f 1 --seeds 1 \
    --substrates sim,threads,tcp --out "${BUILD_DIR}/campaign_asan.json"
fi

echo
echo "=== ThreadSanitizer pass (labels: threads, tcp) ==="
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMODUBFT_TSAN=ON
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)"

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

if [[ $# -ge 1 ]]; then
  run_stage "TSan ctest -L 'threads|tcp' -R $1" \
    ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure \
    -L 'threads|tcp' -R "$1"
else
  run_stage "TSan ctest -L 'threads|tcp'" \
    ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure \
    -L 'threads|tcp'
fi

echo
echo "=== Sanitizer stages ==="
failed=0
for i in "${!STAGES[@]}"; do
  if [[ "${STATUSES[$i]}" -eq 0 ]]; then
    echo "  ok      ${STAGES[$i]}"
  else
    echo "  FAILED  ${STAGES[$i]} (exit ${STATUSES[$i]})"
    failed=1
  fi
done
exit "${failed}"
