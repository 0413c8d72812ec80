// Unit tests for the failure detectors: oracle ◇S, heartbeat ◇P/◇S,
// muteness ◇M.
#include <gtest/gtest.h>

#include "fd/heartbeat_fd.hpp"
#include "fd/muteness_fd.hpp"
#include "fd/oracle_fd.hpp"
#include "sim/simulation.hpp"

namespace modubft::fd {
namespace {

TEST(OracleFd, CompletenessAfterLag) {
  OracleConfig cfg;
  cfg.detection_lag = 1000;
  OracleDetector fd({std::nullopt, SimTime{5000}}, cfg);
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 5500));   // within lag
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 6000));    // lag elapsed
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 100'000)); // forever after
}

TEST(OracleFd, NeverSuspectsCorrectAfterStabilization) {
  OracleConfig cfg;
  cfg.stabilization_time = 10'000;
  cfg.false_suspicion_prob = 0.9;
  OracleDetector fd({std::nullopt, std::nullopt}, cfg);
  for (SimTime t = 10'000; t < 100'000; t += 777) {
    EXPECT_FALSE(fd.suspects(ProcessId{0}, t));
  }
}

TEST(OracleFd, MakesMistakesBeforeStabilization) {
  OracleConfig cfg;
  cfg.stabilization_time = 1'000'000;
  cfg.false_suspicion_prob = 0.5;
  cfg.mistake_window = 1000;
  cfg.seed = 42;
  OracleDetector fd({std::nullopt}, cfg);
  int suspicions = 0;
  for (SimTime t = 0; t < 200'000; t += 1000) {
    suspicions += fd.suspects(ProcessId{0}, t);
  }
  EXPECT_GT(suspicions, 50);
  EXPECT_LT(suspicions, 150);
}

TEST(OracleFd, MistakesStableWithinWindow) {
  OracleConfig cfg;
  cfg.stabilization_time = 1'000'000;
  cfg.false_suspicion_prob = 0.5;
  cfg.mistake_window = 10'000;
  OracleDetector fd({std::nullopt}, cfg);
  for (SimTime base = 0; base < 100'000; base += 10'000) {
    bool first = fd.suspects(ProcessId{0}, base + 1);
    for (SimTime t = base + 1; t < base + 10'000; t += 1234) {
      EXPECT_EQ(fd.suspects(ProcessId{0}, t), first);
    }
  }
}

TEST(OracleFd, OutOfRangeProcessNotSuspected) {
  OracleDetector fd({std::nullopt}, OracleConfig{});
  EXPECT_FALSE(fd.suspects(ProcessId{7}, 1000));
}

TEST(OracleFd, SuspectedSetHelper) {
  OracleConfig cfg;
  cfg.detection_lag = 0;
  OracleDetector fd({std::nullopt, SimTime{0}, SimTime{0}}, cfg);
  auto set = fd.suspected_set(3, 10);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(ProcessId{1}));
  EXPECT_TRUE(set.count(ProcessId{2}));
}

TEST(HeartbeatFd, SuspectsSilentPeer) {
  HeartbeatConfig cfg;
  cfg.initial_timeout = 1000;
  HeartbeatDetector fd(3, ProcessId{0}, cfg);
  fd.record_alive(ProcessId{1}, 100);
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 1000));
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 1200));
}

TEST(HeartbeatFd, NeverSuspectsSelf) {
  HeartbeatDetector fd(3, ProcessId{0}, HeartbeatConfig{});
  EXPECT_FALSE(fd.suspects(ProcessId{0}, 1'000'000));
}

TEST(HeartbeatFd, TimeoutGrowsAfterFalseSuspicion) {
  HeartbeatConfig cfg;
  cfg.initial_timeout = 1000;
  HeartbeatDetector fd(2, ProcessId{0}, cfg);
  fd.record_alive(ProcessId{1}, 0);
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 2000));  // false suspicion
  fd.record_alive(ProcessId{1}, 2100);           // peer speaks: adapt
  EXPECT_GT(fd.timeout_of(ProcessId{1}), SimTime{1000});
  // The grown timeout tolerates the same silence that previously tripped.
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 2100 + 1500));
}

TEST(HeartbeatFd, WrapperAchievesEventualAccuracyInSim) {
  // Two heartbeat-wrapped silent actors on a calm network: after warm-up,
  // neither should suspect the other.
  class Idle final : public sim::Actor {
   public:
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };

  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 8;
  cfg.max_time = 2'000'000;
  sim::Simulation world(cfg);
  HeartbeatConfig hb;
  auto d0 = std::make_shared<HeartbeatDetector>(2, ProcessId{0}, hb);
  auto d1 = std::make_shared<HeartbeatDetector>(2, ProcessId{1}, hb);
  world.set_actor(ProcessId{0}, std::make_unique<HeartbeatWrapper>(
                                    std::make_unique<Idle>(), d0, hb));
  world.set_actor(ProcessId{1}, std::make_unique<HeartbeatWrapper>(
                                    std::make_unique<Idle>(), d1, hb));
  world.run();
  EXPECT_FALSE(d0->suspects(ProcessId{1}, world.now()));
  EXPECT_FALSE(d1->suspects(ProcessId{0}, world.now()));
}

TEST(HeartbeatFd, WrapperDetectsCrashedPeer) {
  class Idle final : public sim::Actor {
   public:
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };

  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 8;
  cfg.max_time = 1'000'000;
  sim::Simulation world(cfg);
  HeartbeatConfig hb;
  auto d0 = std::make_shared<HeartbeatDetector>(2, ProcessId{0}, hb);
  auto d1 = std::make_shared<HeartbeatDetector>(2, ProcessId{1}, hb);
  world.set_actor(ProcessId{0}, std::make_unique<HeartbeatWrapper>(
                                    std::make_unique<Idle>(), d0, hb));
  world.set_actor(ProcessId{1}, std::make_unique<HeartbeatWrapper>(
                                    std::make_unique<Idle>(), d1, hb));
  world.crash_at(ProcessId{1}, 200'000);
  world.run();
  EXPECT_TRUE(d0->suspects(ProcessId{1}, world.now()));
}

TEST(MutenessFd, SuspectsMutePeer) {
  MutenessConfig cfg;
  cfg.initial_timeout = 5000;
  MutenessDetector fd(3, ProcessId{0}, cfg);
  fd.on_protocol_message(ProcessId{1}, 0);
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 4000));
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 6000));
}

TEST(MutenessFd, BackoffOnFalseSuspicion) {
  MutenessConfig cfg;
  cfg.initial_timeout = 5000;
  MutenessDetector fd(2, ProcessId{0}, cfg);
  fd.on_protocol_message(ProcessId{1}, 0);
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 6000));
  fd.on_protocol_message(ProcessId{1}, 6100);
  EXPECT_EQ(fd.timeout_of(ProcessId{1}), SimTime{10'000});
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 6100 + 8000));
}

TEST(MutenessFd, NewRoundResetsDeadlines) {
  MutenessConfig cfg;
  cfg.initial_timeout = 5000;
  MutenessDetector fd(2, ProcessId{0}, cfg);
  fd.on_protocol_message(ProcessId{1}, 0);
  fd.on_new_round(4000);
  // The silence clock restarts at the round boundary.
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 8000));
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 9500));
}

TEST(MutenessFd, SelfNeverSuspected) {
  MutenessDetector fd(2, ProcessId{0}, MutenessConfig{});
  EXPECT_FALSE(fd.suspects(ProcessId{0}, 1'000'000'000));
}

TEST(MutenessFd, MuteCompletenessPermanent) {
  MutenessConfig cfg;
  cfg.initial_timeout = 5000;
  MutenessDetector fd(2, ProcessId{0}, cfg);
  fd.on_protocol_message(ProcessId{1}, 0);
  for (SimTime t = 10'000; t < 500'000; t += 7000) {
    EXPECT_TRUE(fd.suspects(ProcessId{1}, t));
  }
}

}  // namespace
}  // namespace modubft::fd
