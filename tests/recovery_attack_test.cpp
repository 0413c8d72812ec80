// Recovery under active Byzantine attack (adversary/client_campaign.hpp,
// the forged-checkpoint and corrupt-state-resp SMR cells): p3 is killed
// and restarted under client load while the attacker p2 forges checkpoint
// votes and fabricates or corrupts STATE_RESP frames.  Every sound cell
// must pass the SMR cell's rule — in particular p3 ends holding the
// correct quorum's store — with zero audit violations; the negative
// control proves the store audit catches the planted violation when
// verification is switched off.
#include <gtest/gtest.h>

#include <chrono>

#include "adversary/client_campaign.hpp"
#include "smr/checkpoint.hpp"

namespace modubft::adversary {
namespace {

constexpr std::uint32_t kVictim = 2;  // p3

SmrCellOutcome cell(SmrAttack attack, runtime::Backend substrate,
                    std::uint64_t seed) {
  const std::chrono::milliseconds budget(
      substrate == runtime::Backend::kSim ? 20'000 : 60'000);
  return run_smr_cell(4, 1, attack, substrate, seed, budget);
}

// On the simulator the kill lands after a checkpoint certified, so the
// restarted replica installs a certified snapshot, and the attacker's
// forged or corrupted STATE_RESPs reach it and are rejected.  (On the
// wall-clock substrates a corrupted suffix byte may be outvoted by the
// suffix quorum rather than rejected, so only sim asserts rejects.)
TEST(RecoveryAttack, ForgedCheckpointCellSim) {
  const SmrCellOutcome out =
      cell(SmrAttack::kForgedCheckpoint, runtime::Backend::kSim, 41);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  EXPECT_TRUE(out.cell.violations.empty());
  EXPECT_GE(out.result.run_stats.pipeline.recovery_installs, 1u);
  EXPECT_GE(out.result.run_stats.pipeline.recovery_rejects, 1u);
}

TEST(RecoveryAttack, CorruptStateRespCellSim) {
  const SmrCellOutcome out =
      cell(SmrAttack::kCorruptStateResp, runtime::Backend::kSim, 42);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
  EXPECT_TRUE(out.cell.violations.empty());
  EXPECT_GE(out.result.run_stats.pipeline.recovery_installs, 1u);
  EXPECT_GE(out.result.run_stats.pipeline.recovery_rejects, 1u);
}

TEST(RecoveryAttack, ForgedCheckpointCellThreads) {
  const SmrCellOutcome out =
      cell(SmrAttack::kForgedCheckpoint, runtime::Backend::kThreads, 43);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

TEST(RecoveryAttack, CorruptStateRespCellTcp) {
  const SmrCellOutcome out =
      cell(SmrAttack::kCorruptStateResp, runtime::Backend::kTcp, 44);
  EXPECT_TRUE(out.cell.pass()) << to_json(out.cell);
}

// The store audit itself, unit-level: a restarted replica whose store
// differs from the quorum store is a named violation.
TEST(RecoveryAttack, AuditFlagsDivergentRecoveredStore) {
  faults::SmrScenarioResult result;
  result.stores[0] = {{"k", "v"}};
  result.stores[1] = {{"k", "v"}};
  result.stores[2] = {{"k", "v"}};
  result.stores[3] = {{"k", "FORGED"}};
  result.recovered = {3};
  const auto violations = audit_recovered_stores(result, {3}, /*quorum=*/3);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kRecoveredStoreMismatch);
}

TEST(RecoveryAttack, AuditFlagsNeverInstalled) {
  faults::SmrScenarioResult result;
  result.stores[0] = {{"k", "v"}};
  result.stores[1] = {{"k", "v"}};
  result.stores[2] = {{"k", "v"}};
  result.stores[3] = {{"k", "v"}};
  result.recovered = {};  // p4 restarted but never installed state
  const auto violations = audit_recovered_stores(result, {3}, /*quorum=*/3);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kRecoveredStoreMismatch);
}

// Negative control: all peers forge, the victim installs unverified state
// — the store audit must flag the planted kRecoveredStoreMismatch, or a
// clean report from the sound cells means nothing.
TEST(RecoveryAttack, NegativeControlFlagsPlantedViolation) {
  const SmrCellOutcome out =
      run_smr_control(SmrControl::kUnverifiedInstall, 4, 1, 45);
  EXPECT_TRUE(control_flagged(SmrControl::kUnverifiedInstall, out.cell))
      << to_json(out.cell);
  EXPECT_FALSE(out.cell.violations.empty());
  // The victim really did install the fabricated state.
  ASSERT_EQ(out.result.stores.count(kVictim), 1u);
  EXPECT_EQ(out.result.stores.at(kVictim).count("forged"), 1u);
}

// The reply audit checks accepted replies against the commit log of a
// replica that was never killed.  A run in which every replica was killed
// keeps no log, and the audit must not report its accepted replies as
// never committed; it still checks that each reply went to its owner.
TEST(RecoveryAttack, ReplyAuditSkipsRunsWithoutACommitLog) {
  constexpr std::uint32_t kClient = 4;
  faults::SmrScenarioResult result;
  client::AcceptedReply reply;
  reply.seq = 1;
  reply.cmd_id = smr::make_client_cmd_id(kClient, 1);
  reply.slot = 3;
  reply.key = "k";
  reply.value = "v";
  result.client_accepted[kClient] = {reply};
  EXPECT_TRUE(audit_client_replies(result).empty());

  result.client_accepted[kClient + 1] = {reply};  // another client's reply
  EXPECT_EQ(audit_client_replies(result).size(), 1u);

  result.commit_log_kept = true;  // the same replies against an empty log
  const auto violations = audit_client_replies(result);
  ASSERT_EQ(violations.size(), 2u);
  for (const Violation& v : violations) {
    EXPECT_EQ(v.kind, ViolationKind::kClientReplyMismatch);
  }
}

// Both reply-path controls mark every replica that is never killed
// faulty.  Their commit log then comes from the lowest-id such replica,
// so the unverified-install control reports no false reply mismatch, and
// the trust-first-reply control still flags the forgeries its clients
// accepted.
TEST(RecoveryAttack, ReplyAuditInBothControls) {
  const SmrCellOutcome install =
      run_smr_control(SmrControl::kUnverifiedInstall, 4, 1, 1);
  EXPECT_TRUE(install.result.commit_log_kept);
  std::size_t accepted = 0;
  for (const auto& [pid, replies] : install.result.client_accepted) {
    accepted += replies.size();
  }
  EXPECT_GT(accepted, 0u) << "no reply to audit — the case proves nothing";
  for (const Violation& v : install.cell.violations) {
    EXPECT_NE(v.kind, ViolationKind::kClientReplyMismatch) << v.detail;
  }
  EXPECT_TRUE(control_flagged(SmrControl::kUnverifiedInstall, install.cell));

  const SmrCellOutcome forged =
      run_smr_control(SmrControl::kTrustFirstReply, 4, 1, 3);
  EXPECT_TRUE(forged.result.commit_log_kept);
  EXPECT_FALSE(audit_client_replies(forged.result).empty());
  EXPECT_TRUE(control_flagged(SmrControl::kTrustFirstReply, forged.cell));
}

}  // namespace
}  // namespace modubft::adversary
