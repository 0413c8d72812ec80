// Last-mile edge coverage: TCP frame caps, scenario proposal plumbing,
// and detector accessors.
#include <gtest/gtest.h>

#include <atomic>

#include "faults/scenario.hpp"
#include "fd/heartbeat_fd.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft {
namespace {

TEST(TcpEdge, OversizedFrameClosesOnlyThatChannel) {
  class BigSender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.send(ProcessId{1}, Bytes(2048, 0xaa));  // over the cap
      ctx.send(ProcessId{1}, Bytes(16, 0xbb));    // never arrives (channel dead)
      ctx.stop();
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class SmallSender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.send(ProcessId{1}, Bytes(16, 0xcc));
      ctx.stop();
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Counter final : public sim::Actor {
   public:
    Counter(std::atomic<int>* big, std::atomic<int>* small)
        : big_(big), small_(small) {}
    void on_message(sim::Context& ctx, ProcessId from, const Bytes&) override {
      if (from == ProcessId{0}) ++*big_;
      if (from == ProcessId{2}) ++*small_;
      if (small_->load() >= 1) ctx.stop();
    }
   private:
    std::atomic<int>* big_;
    std::atomic<int>* small_;
  };

  transport::TcpClusterConfig cfg;
  cfg.n = 3;
  cfg.budget = std::chrono::milliseconds(2000);
  cfg.max_frame_bytes = 1024;
  transport::TcpCluster cluster(cfg);
  std::atomic<int> from_big{0}, from_small{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<BigSender>());
  cluster.set_actor(ProcessId{1},
                    std::make_unique<Counter>(&from_big, &from_small));
  cluster.set_actor(ProcessId{2}, std::make_unique<SmallSender>());
  cluster.run();
  EXPECT_EQ(from_big.load(), 0) << "oversized channel should be dropped";
  EXPECT_EQ(from_small.load(), 1) << "other channels must be unaffected";
}

TEST(ScenarioEdge, ExplicitProposalsAreUsed) {
  faults::BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 53;
  cfg.proposals = {11, 22, 33, 44};
  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
  ASSERT_TRUE(r.termination);
  const auto& vect = r.decisions.begin()->second.entries;
  for (std::uint32_t j = 0; j < 4; ++j) {
    if (vect[j].has_value()) {
      EXPECT_EQ(*vect[j], (j + 1) * 11) << "entry " << j;
    }
  }
}

TEST(ScenarioEdge, ProposalArityValidated) {
  faults::BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.proposals = {1, 2};  // wrong arity
  EXPECT_THROW(faults::run_bft_scenario(cfg), ContractViolation);
}

TEST(ScenarioEdge, DeliveryTapObservesScenario) {
  faults::BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 54;
  std::uint64_t taps = 0;
  cfg.delivery_tap = [&taps](const sim::Delivery&) { ++taps; };
  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_EQ(taps, r.run_stats.net.messages_delivered);
}

TEST(DetectorEdge, HeartbeatSuspectedSetAndTimeouts) {
  fd::HeartbeatConfig cfg;
  cfg.initial_timeout = 1000;
  fd::HeartbeatDetector fd(3, ProcessId{0}, cfg);
  fd.record_alive(ProcessId{1}, 0);
  fd.record_alive(ProcessId{2}, 2000);
  auto set = fd.suspected_set(3, 2500);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.count(ProcessId{1}));
  EXPECT_EQ(fd.timeout_of(ProcessId{2}), SimTime{1000});
}

TEST(ScenarioEdge, CrashScenarioRejectsWrongCrashArity) {
  faults::CrashScenarioConfig cfg;
  cfg.n = 4;
  cfg.crash_times = {std::nullopt, std::nullopt};  // 2 != 4 and non-empty
  EXPECT_THROW(faults::run_crash_scenario(cfg), ContractViolation);
}

}  // namespace
}  // namespace modubft
