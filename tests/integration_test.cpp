// Cross-module integration tests:
//   * Hurfin–Raynal and Chandra–Toueg consensus driven by a ◇M detector
//     fed by every frame the process receives (the SMR crash back-end's
//     rule; no oracle) end to end;
//   * protocol robustness against garbage traffic (a frame-fuzzing peer);
//   * the full stack under combined stress (turbulence + Byzantine +
//     crash).
#include <gtest/gtest.h>

#include <map>

#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/scenario.hpp"
#include "muteness_feed.hpp"
#include "sim/simulation.hpp"

namespace modubft {
namespace {

// ---------------------------------------------------------------------
// Hurfin–Raynal over a traffic-fed ◇M.
// ---------------------------------------------------------------------

struct MutenessRun {
  std::map<std::uint32_t, consensus::Decision> decisions;
  sim::RunOutcome outcome;
};

MutenessRun run_hr_over_muteness(std::uint32_t n, std::uint64_t seed,
                                 std::vector<std::optional<SimTime>> crashes,
                                 sim::LatencyModel latency) {
  crashes.resize(n);
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.latency = latency;
  sim::Simulation world(cfg);

  MutenessRun run;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto detector = std::make_shared<fd::MutenessDetector>(
        n, ProcessId{i}, fd::MutenessConfig{});
    auto inner = std::make_unique<consensus::HurfinRaynalActor>(
        n, 100 + i, detector,
        [&run, i](ProcessId, const consensus::Decision& d) {
          run.decisions.emplace(i, d);
        });
    world.set_actor(ProcessId{i}, std::make_unique<MutenessFeed>(
                                      std::move(inner), detector));
    if (crashes[i].has_value()) world.crash_at(ProcessId{i}, *crashes[i]);
  }
  run.outcome = world.run();
  return run;
}

TEST(MutenessIntegration, FailureFreeDecides) {
  MutenessRun run = run_hr_over_muteness(5, 1, {}, sim::calm_network());
  ASSERT_EQ(run.decisions.size(), 5u);
  for (auto& [i, d] : run.decisions) {
    EXPECT_EQ(d.value, run.decisions.begin()->second.value);
  }
}

TEST(MutenessIntegration, DetectsCrashedCoordinator) {
  std::vector<std::optional<SimTime>> crashes(5, std::nullopt);
  crashes[0] = SimTime{0};
  MutenessRun run =
      run_hr_over_muteness(5, 2, crashes, sim::calm_network());
  ASSERT_EQ(run.decisions.size(), 4u);
  for (auto& [i, d] : run.decisions) {
    EXPECT_EQ(d.value, run.decisions.begin()->second.value);
    EXPECT_GE(d.round.value, 2u);
  }
}

TEST(MutenessIntegration, SurvivesTurbulence) {
  // Before GST the network stalls messages; the timeouts, doubled at
  // every false suspicion, must recover without violating agreement.
  MutenessRun run =
      run_hr_over_muteness(5, 3, {}, sim::turbulent_until(150'000));
  ASSERT_EQ(run.decisions.size(), 5u);
  for (auto& [i, d] : run.decisions) {
    EXPECT_EQ(d.value, run.decisions.begin()->second.value);
  }
}

TEST(MutenessIntegration, MidRunCrashWithMinorityFaulty) {
  std::vector<std::optional<SimTime>> crashes(7, std::nullopt);
  crashes[0] = SimTime{0};
  crashes[1] = SimTime{60'000};
  crashes[2] = SimTime{120'000};
  MutenessRun run =
      run_hr_over_muteness(7, 4, crashes, sim::calm_network());
  // Processes crashing late may well decide before their crash instant;
  // the four never-crashing ones must decide, and all deciders must agree.
  EXPECT_GE(run.decisions.size(), 4u);
  for (std::uint32_t i = 3; i < 7; ++i) EXPECT_TRUE(run.decisions.count(i));
  for (auto& [i, d] : run.decisions) {
    EXPECT_EQ(d.value, run.decisions.begin()->second.value);
  }
}

// ---------------------------------------------------------------------
// Frame fuzzing: a peer that blasts deterministic garbage at everyone.
// The BFT pipeline must neither crash nor convict anyone except the
// blaster, and the group must still decide.
// ---------------------------------------------------------------------

class GarbageBlaster final : public sim::Actor {
 public:
  explicit GarbageBlaster(std::uint64_t seed) : rng_(seed) {}

  void on_start(sim::Context& ctx) override {
    blast(ctx);
    ctx.set_timer(2'000);
  }

  void on_timer(sim::Context& ctx, std::uint64_t) override {
    blast(ctx);
    if (++bursts_ < 50) ctx.set_timer(2'000);
  }

  void on_message(sim::Context&, ProcessId, const Bytes&) override {}

 private:
  void blast(sim::Context& ctx) {
    const std::size_t len = rng_.next_below(300);
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng_.next_u64());
    ctx.broadcast(junk);
  }

  Rng rng_;
  std::uint64_t bursts_ = 0;
};

TEST(Robustness, GarbageTrafficCannotCrashOrConfuse) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, seed);
    sim::SimConfig sim_cfg;
    sim_cfg.n = 4;
    sim_cfg.seed = seed;
    sim::Simulation world(sim_cfg);

    bft::BftConfig proto;
    proto.n = 4;
    proto.f = 1;

    std::map<std::uint32_t, bft::VectorDecision> decisions;
    std::vector<const bft::BftProcess*> views(4, nullptr);
    for (std::uint32_t i = 0; i < 3; ++i) {
      // Each process memoizes its own verdicts, as the scenario runner's.
      auto proc = std::make_unique<bft::BftProcess>(
          proto, 100 + i, keys.signers[i].get(),
          std::make_shared<crypto::CachingVerifier>(keys.verifier),
          [&decisions, i](ProcessId, const bft::VectorDecision& d) {
            decisions.emplace(i, d);
          });
      views[i] = proc.get();
      world.set_actor(ProcessId{i}, std::move(proc));
    }
    world.set_actor(ProcessId{3}, std::make_unique<GarbageBlaster>(seed));
    world.run();

    ASSERT_EQ(decisions.size(), 3u) << "seed " << seed;
    for (auto& [i, d] : decisions) {
      EXPECT_EQ(d.entries, decisions.begin()->second.entries);
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      for (const bft::FaultRecord& rec : views[i]->nonmuteness().records()) {
        EXPECT_EQ(rec.culprit, (ProcessId{3}))
            << "garbage caused a false accusation";
      }
    }
  }
}

// Mutation fuzzing of valid frames through the signature module: random
// single-byte flips must always be rejected (decode failure or signature
// failure), never accepted as a different message.
TEST(Robustness, MutatedFramesAlwaysRejected) {
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 9);
  bft::SignatureModule module(keys.signers[1].get(), keys.verifier);

  bft::MessageCore core;
  core.kind = bft::BftKind::kCurrent;
  core.sender = ProcessId{1};
  core.round = Round{1};
  core.est = {consensus::Value{5}, std::nullopt, consensus::Value{7},
              std::nullopt};
  const Bytes frame = module.sign(core, bft::Certificate{});

  // The untouched frame authenticates.
  ASSERT_TRUE(module.authenticate(ProcessId{1}, frame).ok);

  Rng rng(1234);
  int rejected = 0, trials = 0;
  for (int t = 0; t < 2000; ++t) {
    Bytes mutated = frame;
    const std::size_t pos = rng.next_below(mutated.size());
    const auto flip = static_cast<std::uint8_t>(1 + rng.next_below(255));
    mutated[pos] ^= flip;
    ++trials;
    bft::SignatureModule::Inbound in = module.authenticate(ProcessId{1}, mutated);
    if (!in.ok) {
      ++rejected;
    } else {
      // Only acceptable if the mutation produced a byte-identical message
      // (impossible with a non-zero flip) — so this must never happen.
      ADD_FAILURE() << "mutated frame accepted at offset " << pos;
    }
  }
  EXPECT_EQ(rejected, trials);
}

// A process isolated through the whole INIT phase and round 1 must still
// decide: the relayed DECIDE is valid in every monitor state, including
// "still collecting INITs" (Fig 3's concurrent line-2 task).
TEST(LaggardIntegration, DecideReachesProcessStuckInInitPhase) {
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 77);
  sim::SimConfig sim_cfg;
  sim_cfg.n = 4;
  sim_cfg.seed = 77;
  sim::Simulation world(sim_cfg);

  bft::BftConfig proto;
  proto.n = 4;
  proto.f = 1;

  std::map<std::uint32_t, bft::VectorDecision> decisions;
  for (std::uint32_t i = 0; i < 4; ++i) {
    world.set_actor(ProcessId{i},
                    std::make_unique<bft::BftProcess>(
                        proto, 100 + i, keys.signers[i].get(),
                        std::make_shared<crypto::CachingVerifier>(
                            keys.verifier),
                        [&decisions, i](ProcessId, const bft::VectorDecision& d) {
                          decisions.emplace(i, d);
                        }));
  }
  // Everything to and from p4 is delayed far past the group's decision.
  world.delay_process(ProcessId{3}, 500'000, 400'000);
  world.run();

  ASSERT_EQ(decisions.size(), 4u);
  for (auto& [i, d] : decisions) {
    EXPECT_EQ(d.entries, decisions.begin()->second.entries);
  }
  // The quorum decided without p4's INIT; p4 caught up via relayed DECIDE.
  EXPECT_GT(decisions.at(3).time, decisions.at(0).time + 300'000);
}

// Chandra-Toueg driven by the traffic-fed ◇M (rather than the oracle).
TEST(MutenessIntegration, ChandraTouegOverMuteness) {
  sim::SimConfig cfg;
  cfg.n = 5;
  cfg.seed = 21;
  sim::Simulation world(cfg);

  std::map<std::uint32_t, consensus::Decision> decisions;
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto det = std::make_shared<fd::MutenessDetector>(5, ProcessId{i},
                                                      fd::MutenessConfig{});
    auto inner = std::make_unique<consensus::ChandraTouegActor>(
        5, 300 + i, det,
        [&decisions, i](ProcessId, const consensus::Decision& d) {
          decisions.emplace(i, d);
        });
    world.set_actor(ProcessId{i},
                    std::make_unique<MutenessFeed>(std::move(inner), det));
  }
  world.crash_at(ProcessId{0}, 0);  // round-1 coordinator dies at start
  world.run();
  ASSERT_EQ(decisions.size(), 4u);
  for (auto& [i, d] : decisions) {
    EXPECT_EQ(d.value, decisions.begin()->second.value);
  }
}

// ---------------------------------------------------------------------
// Combined stress: turbulence + a Byzantine corrupter + a crash, at the
// resilience limit.
// ---------------------------------------------------------------------

TEST(Stress, EverythingAtOnce) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    faults::BftScenarioConfig cfg;
    cfg.n = 7;
    cfg.f = 2;
    cfg.seed = seed;
    cfg.latency = sim::turbulent_until(100'000);
    faults::FaultSpec corrupt;
    corrupt.who = ProcessId{0};
    corrupt.behavior = faults::Behavior::kCorruptVector;
    faults::FaultSpec crash;
    crash.who = ProcessId{3};
    crash.behavior = faults::Behavior::kCrash;
    crash.at = 40'000;
    cfg.faults = {corrupt, crash};

    faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
    EXPECT_TRUE(r.termination) << "seed " << seed;
    EXPECT_TRUE(r.agreement) << "seed " << seed;
    EXPECT_TRUE(r.vector_validity) << "seed " << seed;
    EXPECT_TRUE(r.detectors_reliable) << "seed " << seed;
  }
}

}  // namespace
}  // namespace modubft
