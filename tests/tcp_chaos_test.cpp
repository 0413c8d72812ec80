// Chaos tests for the resilient TCP transport: every directed link is
// killed at least once mid-run (plus random kills, truncations, byte
// flips and delays below the framing layer), and the reliable-FIFO
// contract must be re-established by the transport — the protocols above
// never notice.  The sequence-number audit asserts that no retransmitted
// frame is ever delivered twice or out of FIFO order.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "bft/bft_consensus.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/byzantine.hpp"
#include "faults/link_fault.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft::transport {
namespace {

/// Full chaos: deterministic first-frame kill on every link, plus random
/// kills, truncations, corruption and delays.
LinkFaultPlan chaos_plan(std::uint64_t seed, double kill_prob) {
  faults::LinkFaultSpec kills;
  kills.kill_at_attempts = {0};
  kills.kill_prob = kill_prob;

  faults::LinkFaultSpec noise;
  noise.truncate_prob = 0.02;
  noise.flip_prob = 0.02;
  noise.delay_prob = 0.05;
  noise.delay_mean_us = 200;

  return LinkFaultPlan({kills, noise}, seed);
}

/// Asserts the audit trail of every directed link is exactly 0,1,2,…:
/// contiguous (FIFO, no loss among delivered frames) and duplicate-free.
void assert_fifo_exactly_once(const TcpCluster& cluster, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::vector<std::uint64_t> seqs =
          cluster.delivered_seqs(ProcessId{i}, ProcessId{j});
      for (std::size_t k = 0; k < seqs.size(); ++k) {
        ASSERT_EQ(seqs[k], k) << "link p" << i + 1 << "->p" << j + 1
                              << ": duplicate or out-of-order delivery";
      }
    }
  }
}

TEST(TcpChaos, FifoSurvivesLinkKillsAndCorruption) {
  // One-directional firehose under heavy chaos: the checker must see the
  // exact FIFO sequence even though the link dies many times mid-stream.
  constexpr int kCount = 400;

  class Pinger final : public sim::Actor {
   public:
    explicit Pinger(std::atomic<int>* done) : done_(done) {}
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < kCount; ++i) {
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        w.raw(Bytes(static_cast<std::size_t>(i % 61), 0xcd));
        ctx.send(ProcessId{1}, std::move(w).take());
      }
    }
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      done_->store(1);
      ctx.stop();
    }

   private:
    std::atomic<int>* done_;
  };

  class Checker final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId from,
                    const Bytes& payload) override {
      if (from != ProcessId{0}) return;
      Reader r(payload);
      ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_)) << "FIFO broken";
      ++next_;
      if (next_ == kCount) {
        ctx.send(ProcessId{0}, Bytes{1});
        ctx.stop();
      }
    }

   private:
    int next_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 99;
  cfg.budget = std::chrono::milliseconds(20'000);
  cfg.audit_deliveries = true;
  cfg.faults = chaos_plan(cfg.seed, 0.03);
  TcpCluster cluster(cfg);
  std::atomic<int> done{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Pinger>(&done));
  cluster.set_actor(ProcessId{1}, std::make_unique<Checker>());
  EXPECT_TRUE(cluster.run()) << "unstopped: " << cluster.unstopped().size();
  EXPECT_EQ(done.load(), 1);

  const TcpLinkStats stats = cluster.link_stats();
  EXPECT_GE(stats.kills_injected, 2u);  // both links died at least once
  EXPECT_GE(stats.reconnects, 2u);
  EXPECT_GE(stats.retransmits, 1u);
  assert_fifo_exactly_once(cluster, cfg.n);
}

TEST(TcpChaos, ConsensusSurvivesEveryLinkKilledAcrossSeeds) {
  // Acceptance scenario: n = 4, F = 1, HMAC signatures, one Byzantine
  // process, every directed link killed at least once, three seeds.  All
  // correct processes must decide identical vectors, with the audit
  // proving exactly-once FIFO delivery under retransmission.
  constexpr std::uint32_t kN = 4;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 33);

    bft::BftConfig proto;
    proto.n = kN;
    proto.f = 1;
    proto.muteness.initial_timeout = 2'000'000;  // wall clock: chaos is slow
    proto.suspicion_poll_period = 100'000;

    TcpClusterConfig cfg;
    cfg.n = kN;
    cfg.seed = seed;
    cfg.budget = std::chrono::milliseconds(30'000);
    cfg.audit_deliveries = true;
    cfg.faults = chaos_plan(seed, 0.05);
    TcpCluster cluster(cfg);

    std::mutex mu;
    std::map<std::uint32_t, bft::VectorDecision> decisions;
    for (std::uint32_t i = 0; i < kN; ++i) {
      // Each process memoizes its own verdicts, as the scenario runner's.
      auto proc = std::make_unique<bft::BftProcess>(
          proto, 800 + i, keys.signers[i].get(),
          std::make_shared<crypto::CachingVerifier>(keys.verifier),
          [&mu, &decisions, i](ProcessId, const bft::VectorDecision& d) {
            std::lock_guard<std::mutex> lock(mu);
            decisions.emplace(i, d);
          });
      if (i == 0) {
        faults::FaultSpec spec;
        spec.who = ProcessId{0};
        spec.behavior = faults::Behavior::kCorruptVector;
        cluster.set_actor(ProcessId{0},
                          std::make_unique<faults::ByzantineActor>(
                              std::move(proc), keys.signers[0].get(), spec,
                              kN));
      } else {
        cluster.set_actor(ProcessId{i}, std::move(proc));
      }
    }
    cluster.run();

    std::lock_guard<std::mutex> lock(mu);
    for (std::uint32_t i = 1; i < kN; ++i) {
      ASSERT_TRUE(decisions.count(i))
          << "p" << i + 1 << " did not decide; unstopped count "
          << cluster.unstopped().size();
    }
    for (std::uint32_t i = 2; i < kN; ++i) {
      EXPECT_EQ(decisions.at(i).entries, decisions.at(1).entries);
    }

    const TcpLinkStats stats = cluster.link_stats();
    // Every one of the n(n−1) directed links was killed at least once.
    EXPECT_GE(stats.kills_injected, static_cast<std::uint64_t>(kN * (kN - 1)))
        << "chaos plan failed to kill every link";
    EXPECT_GE(stats.reconnects, static_cast<std::uint64_t>(kN * (kN - 1)));
    assert_fifo_exactly_once(cluster, kN);
  }
}

TEST(TcpChaos, ChecksumCatchesWireCorruption) {
  // Flip-heavy link: corrupted frames must be caught by the CRC at the
  // transport (checksum_failures > 0), never delivered upward, and the
  // stream must still arrive complete and in order.
  constexpr int kCount = 200;

  class Pinger final : public sim::Actor {
   public:
    void on_start(sim::Context& ctx) override {
      for (int i = 0; i < kCount; ++i) {
        Writer w;
        w.u32(static_cast<std::uint32_t>(i));
        w.raw(Bytes(32, 0x5a));
        ctx.send(ProcessId{1}, std::move(w).take());
      }
    }
    void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
      ctx.stop();
    }
  };

  class Checker final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId from,
                    const Bytes& payload) override {
      if (from != ProcessId{0}) return;
      Reader r(payload);
      ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_));
      ASSERT_EQ(r.remaining(), 32u);
      ++next_;
      if (next_ == kCount) {
        ctx.send(ProcessId{0}, Bytes{1});
        ctx.stop();
      }
    }

   private:
    int next_ = 0;
  };

  faults::LinkFaultSpec flips;
  flips.from = ProcessId{0};
  flips.to = ProcessId{1};
  flips.flip_prob = 0.10;
  flips.max_random_faults = 1'000;

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 17;
  cfg.budget = std::chrono::milliseconds(20'000);
  cfg.audit_deliveries = true;
  cfg.faults = LinkFaultPlan({flips}, cfg.seed);
  TcpCluster cluster(cfg);
  cluster.set_actor(ProcessId{0}, std::make_unique<Pinger>());
  cluster.set_actor(ProcessId{1}, std::make_unique<Checker>());
  EXPECT_TRUE(cluster.run());

  const TcpLinkStats stats = cluster.link_stats();
  EXPECT_GE(stats.flips_injected, 1u);
  EXPECT_GE(stats.checksum_failures, 1u);
  EXPECT_GE(stats.retransmits, 1u);
  assert_fifo_exactly_once(cluster, cfg.n);
}

}  // namespace
}  // namespace modubft::transport
