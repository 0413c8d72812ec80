// Unit tests for the failure detectors: oracle ◇S, muteness ◇M and its
// idle rule (pause/resume).
#include <gtest/gtest.h>

#include "fd/muteness_fd.hpp"
#include "fd/oracle_fd.hpp"

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

// The idle rule of the SMR crash back-end: its replica pauses the
// detector while it runs no slot.  A peer that is silent only during the
// pause is trusted when the querier resumes.
TEST(MutenessFd, SilenceWhilePausedIsNotCounted) {
  MutenessDetector fd(2, ProcessId{0}, MutenessConfig{});  // 40 ms
  fd.on_protocol_message(ProcessId{1}, 10'000);
  fd.pause(10'000);
  fd.resume(5'000'000);
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 5'000'000));
  EXPECT_FALSE(fd.suspects(ProcessId{1}, 5'040'000));
  EXPECT_TRUE(fd.suspects(ProcessId{1}, 5'040'001));
}

// Resuming leaves the pause out of a peer's silence but does not restart
// it: 30 ms of silence before a pause of any length, and the peer is
// suspected just after 10 ms more.
TEST(MutenessFd, SilenceBeforeAPauseStillCounts) {
  for (SimTime gap : {SimTime{0}, SimTime{1}, SimTime{50'000},
                      SimTime{10'000'000}}) {
    MutenessDetector fd(2, ProcessId{0}, MutenessConfig{});  // 40 ms
    fd.on_protocol_message(ProcessId{1}, 0);
    fd.pause(30'000);
    fd.resume(30'000 + gap);
    EXPECT_FALSE(fd.suspects(ProcessId{1}, 30'000 + gap + 10'000)) << gap;
    EXPECT_TRUE(fd.suspects(ProcessId{1}, 30'000 + gap + 10'001)) << gap;
  }
}

}  // namespace
}  // namespace modubft::fd
