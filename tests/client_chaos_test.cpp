// SMR attack cells (adversary/client_campaign.hpp): the client
// request/reply path under live adversaries, with p3 killed and restarted
// mid-run under client load and, on TCP, link faults — see the header for
// the attack taxonomy.  The recover-under-attack cells of the same family
// are in recovery_attack_test.cpp.
//
// Every cell asserts the one pass rule: a clean run with every slot
// committed, agreeing stores, every client finished, p3 rejoined via
// verified state transfer, and both audits empty — the recovered store
// matches the correct quorum's, and every accepted reply matches the
// committed log exactly once.  The negative controls prove the audits
// work: each planted fault MUST trip the check it targets.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "adversary/client_campaign.hpp"

namespace modubft::adversary {
namespace {

SmrCellOutcome cell(SmrAttack attack, runtime::Backend substrate,
                    std::uint64_t seed) {
  const std::chrono::milliseconds budget(
      substrate == runtime::Backend::kSim ? 20'000 : 60'000);
  return run_smr_cell(4, 1, attack, substrate, seed, budget);
}

// ------------------------------------------------------------- simulator

TEST(ClientChaos, SimNoAttackBaseline) {
  const SmrCellOutcome out = cell(SmrAttack::kNone, runtime::Backend::kSim, 3);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, SimDroppedRepliesForceRetryAndFailover) {
  const SmrCellOutcome out =
      cell(SmrAttack::kDropReplies, runtime::Backend::kSim, 5);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, SimDelayedRepliesCrossRetriesWithoutDuplication) {
  const SmrCellOutcome out =
      cell(SmrAttack::kDelayReplies, runtime::Backend::kSim, 7);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  EXPECT_EQ(out.result.commit_log_duplicates, 0u);
}

TEST(ClientChaos, SimForgedRepliesNeverCertify) {
  const SmrCellOutcome out =
      cell(SmrAttack::kForgeReplies, runtime::Backend::kSim, 9);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  // The clients saw the forgeries and rejected them at the content check;
  // none survived into an accepted reply (pass already implies the audit
  // came back clean).
  EXPECT_GT(out.result.run_stats.client.mismatched_replies, 0u);
}

TEST(ClientChaos, SimForgedBodiesRejectedAndRecoveredViaFetch) {
  // The attacker corrupts every relay body it emits while keeping the
  // client's signature.  Honest replicas must refuse the body (the
  // signature check) and recover the genuine bytes through the fetch
  // path, so every operation still certifies against the real content.
  const SmrCellOutcome out =
      cell(SmrAttack::kForgeBodies, runtime::Backend::kSim, 21);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  EXPECT_GT(out.result.run_stats.client.auth_rejects, 0u)
      << "no forged body was ever rejected — the attack did not bite";
  // The genuine bodies came back through the fetch path: parked replicas
  // asked Π and the owning clients re-served signed REQUESTs.
  EXPECT_GT(out.result.run_stats.client.fetches_answered, 0u);
}

TEST(ClientChaos, SimPhantomIdsAreSkippedNotParkedOn) {
  // The attacker proposes fabricated client ids it alone has bodies for.
  // Honest replicas must skip them deterministically — by the eligibility
  // window for the far-future id, by the client's signed SEQ_BOUND for
  // the one just past the script — instead of parking the
  // commit frontier on a fetch that can never be answered.  The cell's
  // clients keep 16 ops in flight: the wide window makes the just-past
  // phantom eligible early, forcing the refutation path.
  const SmrCellOutcome out =
      cell(SmrAttack::kPhantomIds, runtime::Backend::kSim, 23);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  const runtime::ClientSummary& cs = out.result.run_stats.client;
  EXPECT_GT(cs.ineligible_skips, 0u)
      << "no decided id was ever skipped — the phantoms never decided";
  EXPECT_GT(cs.bounds_recorded, 0u);
  EXPECT_GT(cs.bounds_sent, 0u)
      << "no client ever refuted a fetch — the park/refute path idled";
}

TEST(ClientChaos, SimDeterministicRerun) {
  const SmrCellOutcome a =
      cell(SmrAttack::kDropReplies, runtime::Backend::kSim, 11);
  const SmrCellOutcome b =
      cell(SmrAttack::kDropReplies, runtime::Backend::kSim, 11);
  EXPECT_TRUE(a.cell.pass()) << to_json(a.cell);
  EXPECT_EQ(a.result.stores, b.result.stores);
  EXPECT_EQ(a.result.commit_log, b.result.commit_log);
  EXPECT_EQ(a.result.run_stats.client.accepted,
            b.result.run_stats.client.accepted);
}

// ------------------------------------------------------ negative controls

// Replica 3 sends every other replica a junk envelope for each of the
// next W + 8 slots with every consensus frame, so the correct replicas
// start no-op slots as fast as consensus runs.  A fixed-length log of
// 88 slots was burned before the clients finished (31–33 of 40 ops
// committed on every seed); a log with no fixed length commits them all.
TEST(ClientChaos, BurnLogJunkCannotStarveTheClients) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    faults::SmrScenarioConfig sc;
    sc.n = 4;
    sc.f = 1;
    sc.seed = seed;
    sc.backend = smr::Backend::kByzantine;
    sc.window = 4;
    sc.batch = 2;
    sc.checkpoint_interval = 8;
    faults::ClientLoadConfig load;
    load.count = 2;
    load.ops_per_client = 20;
    sc.clients = load;
    arm_smr_attack(sc, SmrAttack::kBurnLog, {3});
    const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_TRUE(r.clean) << where;
    EXPECT_EQ(r.run_stats.client.accepted, 40u) << where;
    EXPECT_EQ(r.clients_done.size(), 2u) << where;
    EXPECT_TRUE(r.stores_agree) << where;
    EXPECT_TRUE(audit_client_replies(r).empty()) << where;
    // The junk bit: the replicas ran slots that committed nothing.
    EXPECT_GT(r.run_stats.pipeline.noop_slots, 0u) << where;
  }
}

TEST(ClientChaos, NegativeControlFlagsAcceptedForgeries) {
  const SmrCellOutcome out =
      run_smr_control(SmrControl::kTrustFirstReply, 4, 1, 3);
  std::uint64_t accepted = 0;
  for (const auto& [pid, replies] : out.result.client_accepted) {
    accepted += replies.size();
  }
  EXPECT_GT(accepted, 0u)
      << "the broken clients accepted nothing — the control proves nothing";
  EXPECT_TRUE(control_flagged(SmrControl::kTrustFirstReply, out.cell))
      << "universal forgery + trust-first-reply was not flagged; the "
         "client audit cannot catch the violation it exists for";
}

TEST(ClientChaos, BodyAuthNegativeControl) {
  // Same body forgery with authentication forced off: the corrupted body
  // wins first-write-wins ingest, commits, and the owning client can
  // never certify.  If this configuration still passed, the signature
  // check above would be decoration, not defence.
  const SmrCellOutcome out =
      run_smr_control(SmrControl::kUnauthenticatedBodies, 4, 1, 25);
  EXPECT_TRUE(control_flagged(SmrControl::kUnauthenticatedBodies, out.cell))
      << "unauthenticated body forgery did not wedge any client ("
      << out.result.clients_done.size()
      << "/2 finished) — the auth check is not load-bearing";
  EXPECT_GT(out.result.run_stats.client.mismatched_replies, 0u);
}

// ------------------------------------------------- wall-clock substrates

TEST(ClientChaos, ThreadsDroppedReplies) {
  const SmrCellOutcome out =
      cell(SmrAttack::kDropReplies, runtime::Backend::kThreads, 13);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, ThreadsForgedReplies) {
  const SmrCellOutcome out =
      cell(SmrAttack::kForgeReplies, runtime::Backend::kThreads, 15);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, ThreadsForgedBodies) {
  const SmrCellOutcome out =
      cell(SmrAttack::kForgeBodies, runtime::Backend::kThreads, 27);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, TcpForgedRepliesUnderLinkChaos) {
  // Every TCP cell kills links under the framing layer.
  const SmrCellOutcome out =
      cell(SmrAttack::kForgeReplies, runtime::Backend::kTcp, 17);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(ClientChaos, CellReportRendersJson) {
  const SmrCellOutcome out = cell(SmrAttack::kNone, runtime::Backend::kSim, 19);
  const std::string json = to_json(out.cell);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos) << json;
}

}  // namespace
}  // namespace modubft::adversary
