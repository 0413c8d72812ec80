// Coverage for pieces not owned by another suite: the logger, SMR under
// failure-detector mistakes, the lockstep barrier over RSA signatures, and
// a large-group soak at the paper's maximum resilience.
#include <gtest/gtest.h>

#include <map>

#include "bft/lockstep.hpp"
#include "common/log.hpp"
#include "crypto/rsa64.hpp"
#include "faults/scenario.hpp"
#include "sim/simulation.hpp"
#include "smr/replica.hpp"

namespace modubft {
namespace {

TEST(Log, LevelGatingAndRestore) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  // Nothing observable to assert on stderr without capturing it; the point
  // is that these calls are safe at every level.
  log_trace("trace ", 1);
  log_debug("debug ", 2);
  log_info("info ", 3);
  log_warn("warn ", 4);
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
  set_log_level(before);
}

TEST(SmrCrash, SurvivesFalseSuspicions) {
  // FD mistakes during replication: slots may burn extra rounds, but the
  // stores must still converge identically.  Nobody crashes; before GST
  // half the frames take an extra Exp(40 ms), so the replicas' 40 ms ◇M
  // suspects a live coordinator now and then (at this seed 2 of the 20
  // decisions come in round 2).
  constexpr std::uint32_t kN = 5;
  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 31;
  sim_cfg.latency = sim::turbulent_until(150'000);
  sim_cfg.latency.pre_gst_slow_prob = 0.5;
  sim_cfg.latency.pre_gst_slow_mean_us = 40'000;
  sim::Simulation world(sim_cfg);

  std::vector<smr::Replica*> replicas(kN, nullptr);
  std::vector<smr::Command> workload = {
      {1, smr::Command::Op::kPut, "a", "1"},
      {2, smr::Command::Op::kPut, "b", "2"},
      {3, smr::Command::Op::kDel, "a", ""},
      {4, smr::Command::Op::kPut, "c", "4"},
  };
  for (std::uint32_t i = 0; i < kN; ++i) {
    smr::ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = smr::Backend::kCrashHurfinRaynal;
    auto replica = std::make_unique<smr::Replica>(cfg, workload,
                                                  smr::CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  world.run();
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(replicas[i]->committed_slots(), workload.size());
    EXPECT_EQ(replicas[i]->store().contents(),
              replicas[0]->store().contents());
  }
  EXPECT_EQ(replicas[0]->store().get("a"), std::nullopt);
  EXPECT_EQ(replicas[0]->store().get("c"), "4");
}

TEST(Lockstep, RunsOverRsaSignatures) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::Rsa64Scheme{}.make_system(kN, 17);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 17;
  sim::Simulation world(sim_cfg);

  bft::LockstepConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.rounds = 6;

  std::map<std::uint32_t, Round> finished;
  for (std::uint32_t i = 0; i < kN; ++i) {
    world.set_actor(ProcessId{i},
                    bft::make_lockstep_actor(
                        cfg, keys.signers[i].get(), keys.verifier,
                        [&finished, i](ProcessId, Round r, SimTime) {
                          finished.emplace(i, r);
                        }));
  }
  world.run();
  ASSERT_EQ(finished.size(), kN);
  for (auto& [i, r] : finished) EXPECT_EQ(r.value, 6u);
}

TEST(LargeGroup, ThirteenProcessesFourByzantine) {
  // n = 13: C = ⌊12/3⌋ = 4 = F_max.  The largest stock configuration, with
  // a hostile mix occupying all four fault slots.
  faults::BftScenarioConfig cfg;
  cfg.n = 13;
  cfg.f = 4;
  cfg.seed = 41;
  const faults::Behavior mix[] = {
      faults::Behavior::kMute, faults::Behavior::kCorruptVector,
      faults::Behavior::kBadSignature, faults::Behavior::kDuplicateCurrent};
  for (std::uint32_t i = 0; i < 4; ++i) {
    faults::FaultSpec spec;
    spec.who = ProcessId{i};
    spec.behavior = mix[i];
    cfg.faults.push_back(spec);
  }
  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.vector_validity);
  EXPECT_TRUE(r.detectors_reliable);
  EXPECT_GE(r.min_correct_entries, 5u);  // n − 2F = 5
}

TEST(LargeGroup, ThirteenProcessesDeterministic) {
  faults::BftScenarioConfig cfg;
  cfg.n = 13;
  cfg.f = 4;
  cfg.seed = 43;
  faults::FaultSpec spec;
  spec.who = ProcessId{0};
  spec.behavior = faults::Behavior::kMute;
  cfg.faults = {spec};
  faults::BftScenarioResult a = faults::run_bft_scenario(cfg);
  faults::BftScenarioResult b = faults::run_bft_scenario(cfg);
  EXPECT_EQ(a.last_decision_time, b.last_decision_time);
  EXPECT_EQ(a.run_stats.net.messages_sent, b.run_stats.net.messages_sent);
}

}  // namespace
}  // namespace modubft
