// Targeted-timing adversary tests: per-channel delay injection on the
// simulator and its effect on failure detectors and both consensus
// protocols.  The asynchronous model permits arbitrary finite delays, so
// everything here must preserve safety; what timing attacks can do is
// cause false suspicions and extra rounds.
#include <gtest/gtest.h>

#include <map>

#include "bft/bft_consensus.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/hmac_signer.hpp"
#include "muteness_feed.hpp"
#include "sim/simulation.hpp"

namespace modubft {
namespace {

TEST(TimingAdversary, ChannelDelayIsApplied) {
  class Sender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      ctx.send(ProcessId{1}, {1});
      ctx.send(ProcessId{2}, {1});
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Receiver final : public sim::Actor {
   public:
    explicit Receiver(SimTime* at) : at_(at) {}
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      *at_ = ctx.now();
    }
   private:
    SimTime* at_;
  };

  sim::SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 1;
  sim::Simulation world(cfg);
  SimTime slow_at = 0, fast_at = 0;
  world.set_actor(ProcessId{0}, std::make_unique<Sender>());
  world.set_actor(ProcessId{1}, std::make_unique<Receiver>(&slow_at));
  world.set_actor(ProcessId{2}, std::make_unique<Receiver>(&fast_at));
  world.delay_channel(ProcessId{0}, ProcessId{1}, 500'000, 1'000'000);
  world.run();
  EXPECT_GT(slow_at, fast_at + 400'000);
}

TEST(TimingAdversary, DelayExpiresAtDeadline) {
  class PeriodicSender final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override { ctx.set_timer(10'000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.send(ProcessId{1}, {1});
      if (++count_ < 30) ctx.set_timer(10'000);
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
   private:
    int count_ = 0;
  };
  class Gaps final : public sim::Actor {
   public:
    explicit Gaps(std::vector<SimTime>* arrivals) : arrivals_(arrivals) {}
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      arrivals_->push_back(ctx.now());
    }
   private:
    std::vector<SimTime>* arrivals_;
  };

  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 2;
  sim::Simulation world(cfg);
  std::vector<SimTime> arrivals;
  world.set_actor(ProcessId{0}, std::make_unique<PeriodicSender>());
  world.set_actor(ProcessId{1}, std::make_unique<Gaps>(&arrivals));
  world.delay_channel(ProcessId{0}, ProcessId{1}, 200'000, 100'000);
  world.run();
  ASSERT_GE(arrivals.size(), 20u);
  // Early messages (sent before t=100ms) arrive after the 200ms penalty;
  // later ones arrive promptly, so arrivals bunch then smooth out.
  EXPECT_GT(arrivals.front(), 200'000u);
  EXPECT_LT(arrivals.back(), 500'000u);
}

TEST(TimingAdversary, CausesFalseSuspicionThenRecovery) {
  // p2 sends p1 a frame every 5 ms; p1's ◇M hears p2 only through them.
  class Pinger final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override { ctx.set_timer(5'000); }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.send(ProcessId{0}, {1});
      ctx.set_timer(5'000);
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };
  class Idle final : public sim::Actor {
   public:
    void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  };

  sim::SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  cfg.max_time = 2'000'000;
  sim::Simulation world(cfg);
  auto d0 = std::make_shared<fd::MutenessDetector>(2, ProcessId{0},
                                                   fd::MutenessConfig{});
  world.set_actor(ProcessId{0},
                  std::make_unique<MutenessFeed>(std::make_unique<Idle>(), d0));
  world.set_actor(ProcessId{1}, std::make_unique<Pinger>());
  // Strangle p2's frames towards p1 for 300ms.
  world.delay_channel(ProcessId{1}, ProcessId{0}, 100'000, 300'000);

  bool suspected_during_attack = false;
  for (SimTime probe = 40'000; probe <= 280'000; probe += 10'000) {
    world.run_until(probe);
    suspected_during_attack |= d0->suspects(ProcessId{1}, world.now());
  }
  EXPECT_TRUE(suspected_during_attack);
  world.run();
  // After the attack and the adaptive backoff, accuracy returns.
  EXPECT_FALSE(d0->suspects(ProcessId{1}, world.now()));
}

TEST(TimingAdversary, HurfinRaynalSafeUnderSlowCoordinator) {
  // Slow (not crash) the round-1 coordinator so it is falsely suspected:
  // some processes vote NEXT, yet agreement and validity must hold.
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    sim::SimConfig cfg;
    cfg.n = 5;
    cfg.seed = seed;
    sim::Simulation world(cfg);

    // Aggressive timing: a 20 ms ◇M fed by each process's own traffic.
    fd::MutenessConfig aggressive;
    aggressive.initial_timeout = 20'000;

    std::map<std::uint32_t, consensus::Decision> decisions;
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto det =
          std::make_shared<fd::MutenessDetector>(5, ProcessId{i}, aggressive);
      auto inner = std::make_unique<consensus::HurfinRaynalActor>(
          5, 100 + i, det,
          [&decisions, i](ProcessId, const consensus::Decision& d) {
            decisions.emplace(i, d);
          });
      world.set_actor(ProcessId{i},
                      std::make_unique<MutenessFeed>(std::move(inner), det));
    }
    world.delay_process(ProcessId{0}, 80'000, 200'000);
    world.run();

    ASSERT_EQ(decisions.size(), 5u) << "seed " << seed;
    for (auto& [i, d] : decisions) {
      EXPECT_EQ(d.value, decisions.begin()->second.value) << "seed " << seed;
    }
  }
}

TEST(TimingAdversary, BftSafeUnderSlowCoordinator) {
  for (std::uint64_t seed : {7ull, 8ull}) {
    crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, seed);
    sim::SimConfig cfg;
    cfg.n = 4;
    cfg.seed = seed;
    sim::Simulation world(cfg);

    bft::BftConfig proto;
    proto.n = 4;
    proto.f = 1;
    proto.muteness.initial_timeout = 30'000;  // aggressive ◇M

    std::map<std::uint32_t, bft::VectorDecision> decisions;
    std::vector<const bft::BftProcess*> views(4, nullptr);
    for (std::uint32_t i = 0; i < 4; ++i) {
      auto proc = std::make_unique<bft::BftProcess>(
          proto, 100 + i, keys.signers[i].get(), keys.verifier,
          [&decisions, i](ProcessId, const bft::VectorDecision& d) {
            decisions.emplace(i, d);
          });
      views[i] = proc.get();
      world.set_actor(ProcessId{i}, std::move(proc));
    }
    world.delay_process(ProcessId{0}, 100'000, 250'000);
    world.run();

    ASSERT_EQ(decisions.size(), 4u) << "seed " << seed;
    for (auto& [i, d] : decisions) {
      EXPECT_EQ(d.entries, decisions.begin()->second.entries);
    }
    // Slowness is NOT misbehaviour: nobody may convict the slow process.
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(views[i]->nonmuteness().faulty_set().empty())
          << "timing attack produced a false conviction";
    }
  }
}

}  // namespace
}  // namespace modubft
