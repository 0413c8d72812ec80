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
# The TSan pass covers the wall-clock substrates (threaded Cluster and
# TcpCluster): tests labelled `threads` or `tcp` — mailboxes, the
# delivery tap, Stats accumulation, reconnect threads — where a data race
# would not crash but would silently corrupt an experiment.  The SMR
# pipeline added two more customers under the `threads` label:
# verify_pool_test (concurrent verify_all callers hammering one
# crypto::VerifyPool and a shared CachingVerifier) and smr_pipeline_test
# (pipelined replicas on the threaded cluster with the pool enabled).
# The recovery subsystem (label `recovery`) adds more: the STATE_RESP
# decode fuzz loop runs under ASan/UBSan inside the full suite, and
# smr_recovery_transport_test plus the recover-under-attack SMR cells
# (recovery_attack_test) carry the threads/tcp labels so the TSan pass
# exercises the node-thread dormancy loop, the restart handoff of
# actor/timers/rng, and the shared CachingVerifier surviving across a
# replica's two lives.
# Staged ingest (docs/INGEST.md) adds two more: epoll_chaos_test (label
# `tcp`) drives the epoll receive loop through link kills, wire noise,
# slow-reader backpressure and burst batch dispatch, and
# perf_smoke_ingest plus the staged-ingest cases in smr_pipeline_test /
# substrate_equivalence_test (labels `threads`/`tcp`) run prologue
# workers against the shared verify cache under TSan — the
# decode-on-worker handoff, where each job borrows a frame of the batch
# and decodes its own copy, is exactly where a lifetime bug would hide.
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
# Usage: scripts/run_sanitizers.sh [ctest-regex]
#   scripts/run_sanitizers.sh             # everything
#   scripts/run_sanitizers.sh tcp_chaos   # just the chaos tests
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-sanitize
TSAN_BUILD_DIR=build-tsan

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMODUBFT_SANITIZE=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error: any report is a test failure, not a log line.
export ASAN_OPTIONS=halt_on_error=1:detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

pushd "${BUILD_DIR}" >/dev/null
if [[ $# -ge 1 ]]; then
  ctest --output-on-failure -R "$1"
else
  ctest --output-on-failure -j "$(nproc)"
  echo
  echo "=== Adversarial campaign under ASan/UBSan ==="
  ./examples/scenario_cli campaign --n 4 --f 1 --seeds 1 \
    --substrates sim,threads,tcp --out campaign_asan.json
fi
popd >/dev/null

echo
echo "=== ThreadSanitizer pass (labels: threads, tcp) ==="
cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMODUBFT_TSAN=ON
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)"

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

pushd "${TSAN_BUILD_DIR}" >/dev/null
if [[ $# -ge 1 ]]; then
  ctest --output-on-failure -L 'threads|tcp' -R "$1"
else
  ctest --output-on-failure -L 'threads|tcp'
fi
popd >/dev/null
