// Adversarial campaign engine end-to-end (src/adversary/).
//
// Runs a small (attack × substrate × seed) grid through the campaign
// runner with the safety auditor tapped into every cell and asserts the
// paper's invariants hold on every substrate; proves the auditor has teeth
// by aiming it at the deliberately broken protocol double (negative
// control); unit-tests the failing-attack minimizer against a synthetic
// predicate; and pins the delivery-tap payload-copy contract on the
// threaded substrates (this file runs under TSan via its threads/tcp
// labels — a tap racing node internals is a test failure here, not a
// heisenbug in production).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "adversary/attack.hpp"
#include "adversary/auditor.hpp"
#include "adversary/campaign.hpp"
#include "adversary/client_campaign.hpp"
#include "faults/scenario.hpp"

namespace modubft {
namespace {

using adversary::AttackSpec;
using adversary::CellOutcome;

// ---------------------------------------------------------------- taxonomy

TEST(AttackCatalog, CoversTheTaxonomyAndFits) {
  const std::vector<AttackSpec> catalog = adversary::attack_catalog(4, 1);
  EXPECT_GE(catalog.size(), 20u);
  for (const AttackSpec& a : catalog) {
    EXPECT_TRUE(a.fits(4, 1)) << a.name;
    EXPECT_LE(a.attackers().size(), 1u) << a.name;
    EXPECT_FALSE(a.paper_class.empty()) << a.name;
  }
  EXPECT_NE(adversary::find_attack(catalog, "equivocate"), nullptr);
  EXPECT_NE(adversary::find_attack(catalog, "fuzz-storm"), nullptr);
  EXPECT_EQ(adversary::find_attack(catalog, "no-such-attack"), nullptr);
  // Coalitions need f >= 2 and must not appear at f = 1...
  EXPECT_EQ(adversary::find_attack(catalog, "coalition-equivocate-mute"),
            nullptr);
  // ...but do at (7, 2), within the larger coalition bound.
  const std::vector<AttackSpec> wide = adversary::attack_catalog(7, 2);
  const AttackSpec* coalition =
      adversary::find_attack(wide, "coalition-equivocate-mute");
  ASSERT_NE(coalition, nullptr);
  EXPECT_EQ(coalition->attackers().size(), 2u);
}

// ------------------------------------------------------------ audited grid

void expect_cell_passes(const CellOutcome& cell) {
  EXPECT_TRUE(cell.pass()) << adversary::to_json(cell);
}

TEST(AdversaryCampaign, SimGridHoldsEveryInvariant) {
  adversary::CampaignConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seeds = 3;
  cfg.negative_control = false;
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  EXPECT_GE(report.cells_run, 60u);  // full catalogs × 3 seeds
  for (const CellOutcome& cell : report.cells) expect_cell_passes(cell);
  EXPECT_TRUE(report.ok);
  // The SMR family rides the same sweep: every one of its attacks, per seed.
  const std::size_t smr_cells = std::count_if(
      report.cells.begin(), report.cells.end(), [](const CellOutcome& c) {
        return adversary::find_smr_attack(c.attack).has_value();
      });
  EXPECT_EQ(smr_cells, 3 * adversary::smr_attack_catalog().size());
}

TEST(AdversaryCampaign, UnknownAttacksAndEmptyGridsFail) {
  // A typo must not shrink the campaign silently to the names it knows.
  adversary::CampaignConfig cfg;
  cfg.attacks = {"equivocat"};
  cfg.negative_control = false;
  EXPECT_THROW(adversary::run_campaign(cfg), std::invalid_argument);
  cfg.attacks = {"equivocate", "drop-replie"};
  EXPECT_THROW(adversary::run_campaign(cfg), std::invalid_argument);
  // Zero cells prove nothing, so they are not ok.
  cfg.attacks = {"equivocate"};
  cfg.seeds = 0;
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  EXPECT_EQ(report.cells_run, 0u);
  EXPECT_FALSE(report.ok);
  // No attack of either family fits f = 0.
  cfg.f = 0;
  cfg.seeds = 1;
  cfg.attacks.clear();
  EXPECT_EQ(adversary::run_campaign(cfg).cells_run, 0u);
  cfg.attacks = {"drop-replies"};
  EXPECT_THROW(adversary::run_campaign(cfg), std::invalid_argument);
}

TEST(AdversaryCampaign, ThreadedSubstrateGrid) {
  adversary::CampaignConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seeds = 2;
  cfg.attacks = {"none", "crash", "equivocate", "truncate-cert", "fuzz-storm",
                 "split-brain", "forged-checkpoint"};
  cfg.substrates = {runtime::Backend::kThreads};
  cfg.negative_control = false;
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  EXPECT_EQ(report.cells_run, 14u);
  for (const CellOutcome& cell : report.cells) expect_cell_passes(cell);
}

TEST(AdversaryCampaign, TcpSubstrateGrid) {
  adversary::CampaignConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seeds = 2;
  cfg.attacks = {"none", "equivocate", "forge-cert", "fuzz-bitflip"};
  cfg.substrates = {runtime::Backend::kTcp};
  cfg.negative_control = false;
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  EXPECT_EQ(report.cells_run, 8u);
  for (const CellOutcome& cell : report.cells) expect_cell_passes(cell);
}

TEST(AdversaryCampaign, CoalitionGridAtLargerResilience) {
  adversary::CampaignConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seeds = 2;
  cfg.attacks = {"coalition-equivocate-mute", "coalition-forge-fuzz",
                 "coalition-replay-pair"};
  cfg.negative_control = false;
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  EXPECT_EQ(report.cells_run, 6u);
  for (const CellOutcome& cell : report.cells) expect_cell_passes(cell);
}

TEST(AdversaryCampaign, EquivocationIsObservedOnTheWire) {
  // The auditor must not pass vacuously: a split-brain run contains real
  // signed-conflict evidence, and the detectors convict the equivocator —
  // "detected", not merely "harmless".
  const std::vector<AttackSpec> catalog = adversary::attack_catalog(4, 1);
  const AttackSpec* attack = adversary::find_attack(catalog, "split-brain");
  ASSERT_NE(attack, nullptr);
  const CellOutcome cell =
      adversary::run_attack_cell(4, 1, *attack, runtime::Backend::kSim, 1,
                                 std::chrono::milliseconds(20'000));
  expect_cell_passes(cell);
  ASSERT_TRUE(cell.audit.has_value());
  EXPECT_GE(cell.audit->equivocations, 1u);
}

// ------------------------------------------------------ negative controls

TEST(AdversaryCampaign, NegativeControlIsFlagged) {
  const adversary::AuditReport audit =
      adversary::run_negative_control(4, 1, 1);
  EXPECT_FALSE(audit.ok);
  auto has = [&](adversary::ViolationKind kind) {
    return std::any_of(audit.violations.begin(), audit.violations.end(),
                       [&](const adversary::Violation& v) {
                         return v.kind == kind;
                       });
  };
  EXPECT_TRUE(has(adversary::ViolationKind::kDisagreement));
  EXPECT_TRUE(has(adversary::ViolationKind::kUncertifiedDecision));
}

TEST(AdversaryCampaign, ReportListsEveryControlFlagged) {
  // The broken protocol double plus the three planted SMR faults; ok
  // requires each one flagged.
  adversary::CampaignConfig cfg;
  cfg.attacks = {"none"};
  const adversary::CampaignReport report = adversary::run_campaign(cfg);
  std::vector<std::string> names;
  for (const adversary::ControlOutcome& c : report.controls) {
    names.push_back(c.name);
    EXPECT_TRUE(c.flagged) << c.name;
    EXPECT_FALSE(c.findings.empty()) << c.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "broken-consensus", "unverified-install",
                       "trust-first-reply", "unauthenticated-bodies"}));
  EXPECT_TRUE(report.ok);
}

// ------------------------------------------------------------ minimization

TEST(Minimizer, ShrinksToTheSmallestFailingAdversary) {
  // Synthetic predicate: the "failure" needs the forge-cert fault AND a
  // nonzero bitflip rate; everything else is dead weight the minimizer
  // must strip.
  AttackSpec bloated;
  bloated.name = "kitchen-sink";
  for (faults::Behavior b :
       {faults::Behavior::kMute, faults::Behavior::kForgeCert,
        faults::Behavior::kDuplicateNext}) {
    faults::FaultSpec spec;
    spec.who = ProcessId{static_cast<std::uint32_t>(bloated.faults.size())};
    spec.behavior = b;
    bloated.faults.push_back(spec);
  }
  bloated.fuzzed = {3, 4};
  bloated.mutation.bitflip_prob = 0.5;
  bloated.mutation.truncate_prob = 0.5;
  bloated.mutation.reorder_prob = 0.5;

  auto fails = [](const AttackSpec& a) {
    const bool forge =
        std::any_of(a.faults.begin(), a.faults.end(),
                    [](const faults::FaultSpec& s) {
                      return s.behavior == faults::Behavior::kForgeCert;
                    });
    return forge && a.mutation.bitflip_prob > 0 && !a.fuzzed.empty();
  };
  ASSERT_TRUE(fails(bloated));

  const AttackSpec minimal = adversary::minimize_attack(bloated, fails);
  ASSERT_EQ(minimal.faults.size(), 1u);
  EXPECT_EQ(minimal.faults[0].behavior, faults::Behavior::kForgeCert);
  EXPECT_EQ(minimal.fuzzed.size(), 1u);
  EXPECT_GT(minimal.mutation.bitflip_prob, 0);
  EXPECT_EQ(minimal.mutation.truncate_prob, 0);
  EXPECT_EQ(minimal.mutation.reorder_prob, 0);
  EXPECT_TRUE(fails(minimal));
}

TEST(Minimizer, FixpointOnAlwaysFailingPredicate) {
  const std::vector<AttackSpec> catalog = adversary::attack_catalog(4, 1);
  const AttackSpec* storm = adversary::find_attack(catalog, "fuzz-storm");
  ASSERT_NE(storm, nullptr);
  const AttackSpec minimal =
      adversary::minimize_attack(*storm, [](const AttackSpec&) {
        return true;
      });
  // Everything removable is removed.
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_TRUE(minimal.fuzzed.empty());
  EXPECT_FALSE(minimal.mutation.any());
}

// ------------------------------------------------------ tap payload safety

TEST(DeliveryTap, ThreadedTapReceivesStablePayloadCopies) {
  // The threaded substrates copy each payload on the node thread *outside*
  // the tap mutex before invoking the tap (transport/cluster.cpp): the tap
  // may decode at leisure without racing the sender.  Run under TSan via
  // this test's threads label; also assert the bytes are genuine frames.
  std::mutex mu;
  std::vector<Bytes> seen;
  faults::BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 7;
  cfg.substrate = runtime::Backend::kThreads;
  cfg.delivery_tap = [&](const sim::Delivery& d) {
    ASSERT_NE(d.payload, nullptr);
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(*d.payload);  // deep copy; must stay valid afterwards
  };
  const faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  ASSERT_FALSE(seen.empty());
  std::size_t decodable = 0;
  for (const Bytes& frame : seen) {
    if (bft::try_decode_message(frame)) ++decodable;
  }
  EXPECT_EQ(decodable, seen.size());
}

TEST(DeliveryTap, TcpTapReceivesStablePayloadCopies) {
  std::mutex mu;
  std::size_t frames = 0, decodable = 0;
  faults::BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 9;
  cfg.substrate = runtime::Backend::kTcp;
  cfg.delivery_tap = [&](const sim::Delivery& d) {
    ASSERT_NE(d.payload, nullptr);
    const bool ok = static_cast<bool>(bft::try_decode_message(*d.payload));
    std::lock_guard<std::mutex> lock(mu);
    ++frames;
    if (ok) ++decodable;
  };
  const faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(decodable, frames);
}

}  // namespace
}  // namespace modubft
