// Kill/restart recovery on the wall-clock substrates: the same certified
// state transfer that the sim tests pin down must survive real threads,
// real mailboxes and real sockets — dormant node threads, restart while
// frames are in flight, recovery racing live consensus traffic.  The
// whole file runs under TSan in scripts/run_sanitizers.sh (labels
// threads/tcp/recovery), which is what makes the restart path's handoff
// of the node's actor, timers and rng stream a checked property instead
// of a hope.
#include <gtest/gtest.h>

#include "faults/scenario.hpp"
#include "smr/replica.hpp"

namespace modubft {
namespace {

faults::SmrScenarioConfig wall_clock_scenario(runtime::Backend substrate,
                                              smr::Backend backend,
                                              std::uint64_t seed) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = seed;
  sc.substrate = substrate;
  sc.backend = backend;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 8;
  sc.workload = faults::kv_workload(200);
  sc.slots = 100;
  sc.budget = std::chrono::milliseconds(30'000);
  // A progress kill: p2 halts as it commits slot 40, past five checkpoint
  // boundaries and well before the end of the log, however fast the host
  // runs the replicas.  It comes back a fixed wall-clock delay after the
  // kill, after the survivors have certified further checkpoints (the
  // dormancy loop must discard the victim's stale mailbox the whole time).
  faults::CrashSpec kill;
  kill.who = ProcessId{2};
  kill.after_commit = 40;
  kill.restart_at = substrate == runtime::Backend::kTcp ? 80'000 : 60'000;
  sc.crashes.push_back(kill);
  return sc;
}

void expect_recovered(const faults::SmrScenarioResult& r) {
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.recovered.count(2), 1u);
  EXPECT_GT(r.run_stats.pipeline.recovery_installs, 0u);
  EXPECT_GT(r.run_stats.pipeline.checkpoint_certs, 0u);
}

TEST(RecoveryThreads, CrashBackendKillRestartRecovers) {
  expect_recovered(faults::run_smr_scenario(wall_clock_scenario(
      runtime::Backend::kThreads, smr::Backend::kCrashHurfinRaynal, 21)));
}

TEST(RecoveryThreads, ByzantineBackendKillRestartRecovers) {
  expect_recovered(faults::run_smr_scenario(wall_clock_scenario(
      runtime::Backend::kThreads, smr::Backend::kByzantine, 22)));
}

// The TSan determinism variant: not bit-identical stores across runs (a
// wall-clock substrate schedules freely) but the invariant determinism
// protects — every run, whatever the interleaving, converges every correct
// replica (including the restarted one) onto one store.
TEST(RecoveryThreads, RestartRacesConvergeAcrossSeeds) {
  for (std::uint64_t seed : {31, 32}) {
    const faults::SmrScenarioResult r = faults::run_smr_scenario(
        wall_clock_scenario(runtime::Backend::kThreads,
                            smr::Backend::kCrashHurfinRaynal, seed));
    EXPECT_TRUE(r.clean) << "seed " << seed;
    EXPECT_TRUE(r.stores_agree) << "seed " << seed;
    EXPECT_EQ(r.recovered.count(2), 1u) << "seed " << seed;
  }
}

// The wall-clock late recoverer: p1 halts as it commits slot 2 and comes
// back 300 ms later, long after the 2 × 8 client ops finished.  The runner
// keeps the survivors running until the fresh life applied every command.
TEST(RecoveryThreads, LateRecovererInAClientRunCatchesUp) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = 25;
  sc.substrate = runtime::Backend::kThreads;
  sc.backend = smr::Backend::kByzantine;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.budget = std::chrono::milliseconds(30'000);
  sc.clients = faults::ClientLoadConfig{};  // 2 clients × 8 ops
  faults::CrashSpec kill;
  kill.who = ProcessId{1};
  kill.after_commit = 2;
  kill.restart_at = 300'000;
  sc.crashes.push_back(kill);
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.recovered, (std::set<std::uint32_t>{1}));
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_EQ(r.run_stats.client.accepted, 16u);
}

TEST(RecoveryTcp, CrashBackendKillRestartRecovers) {
  expect_recovered(faults::run_smr_scenario(wall_clock_scenario(
      runtime::Backend::kTcp, smr::Backend::kCrashHurfinRaynal, 23)));
}

TEST(RecoveryTcp, ByzantineBackendKillRestartRecovers) {
  expect_recovered(faults::run_smr_scenario(wall_clock_scenario(
      runtime::Backend::kTcp, smr::Backend::kByzantine, 24)));
}

}  // namespace
}  // namespace modubft
