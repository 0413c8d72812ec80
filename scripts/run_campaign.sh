#!/usr/bin/env bash
# Runs the adversarial campaign: both attack families — the consensus
# catalog and the SMR attacks on state transfer and the client path —
# swept across all three substrates (sim, threads, tcp) with three seeds
# per cell (306 (attack × substrate × seed) scenarios at n=4, f=1), plus
# the four negative controls (deliberately broken configurations the
# audits must flag).
#
# The JSON report lands in build/campaign_report.json; the script exits
# nonzero if any cell fails a check, any negative control goes
# unflagged, or no cell ran.  Pass extra scenario_cli campaign flags to
# override the grid:
#
#   scripts/run_campaign.sh                     # default 306-cell sweep
#   scripts/run_campaign.sh --n 7 --f 2         # coalition grid
#   scripts/run_campaign.sh --attacks equivocate,forge-replies --seeds 20
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target scenario_cli

"${BUILD_DIR}/examples/scenario_cli" campaign \
  --n 4 --f 1 --seeds 3 \
  --substrates sim,threads,tcp \
  --out "${BUILD_DIR}/campaign_report.json" \
  "$@"

echo
echo "report: ${BUILD_DIR}/campaign_report.json"
