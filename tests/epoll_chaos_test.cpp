// Chaos tests aimed squarely at the epoll receive loop (see
// docs/INGEST.md): one level-triggered epoll instance per node drives the
// listen socket and every inbound connection, so these scenarios stress
// exactly what thread-per-connection readers never faced —
//
//   * many concurrent inbound links multiplexed through one loop while
//     every link is being killed, truncated and corrupted below the
//     framing layer (reconnects churn the fd set mid-run);
//   * a slow reader whose kernel receive buffer fills, pushing the
//     senders through the partial-write / EPOLLOUT re-arm path;
//   * burst arrivals that must coalesce into multi-frame Actor::on_batch
//     dispatches.
//
// All of it must preserve the reliable-FIFO exactly-once contract, which
// the delivery audit checks seq by seq.  The file runs under TSan in the
// sanitizer pass (`tcp` label).
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/serial.hpp"
#include "faults/link_fault.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft::transport {
namespace {

/// Deterministic first-frame kill on every link plus random kills,
/// truncations, corruption and delays (the tcp_chaos_test recipe).
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

/// Sends `count` sequenced frames to `to`, then waits for one ack.
class Pinger final : public sim::Actor {
 public:
  Pinger(ProcessId to, int count, std::size_t pad)
      : to_(to), count_(count), pad_(pad) {}

  void on_start(sim::Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      Writer w;
      w.u32(static_cast<std::uint32_t>(i));
      w.raw(Bytes(pad_, 0xcd));
      ctx.send(to_, std::move(w).take());
    }
  }
  void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
    ctx.stop();
  }

 private:
  ProcessId to_;
  int count_;
  std::size_t pad_;
};

// --------------------------------------------- many-to-one under chaos

// Three pingers firehose one checker concurrently: the checker's single
// epoll loop multiplexes three inbound links that are all being killed
// and corrupted, and every per-sender stream must still arrive complete,
// in order, exactly once.
TEST(EpollChaos, ManyToOneFifoPerSenderUnderLinkChaos) {
  constexpr std::uint32_t kN = 4;
  static constexpr int kCount = 250;

  class Checker final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId from,
                    const Bytes& payload) override {
      ASSERT_LT(from.value, 3u);
      Reader r(payload);
      ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_[from.value]))
          << "per-sender FIFO broken on p" << from.value + 1;
      if (++next_[from.value] == kCount) {
        ctx.send(from, Bytes{1});  // release that pinger
        if (++finished_ == 3) ctx.stop();
      }
    }

    int finished() const { return finished_; }

   private:
    int next_[3] = {0, 0, 0};
    int finished_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = kN;
  cfg.seed = 41;
  cfg.budget = std::chrono::milliseconds(30'000);
  cfg.audit_deliveries = true;
  cfg.faults = chaos_plan(cfg.seed, 0.03);
  TcpCluster cluster(cfg);

  auto checker = std::make_unique<Checker>();
  Checker* view = checker.get();
  for (std::uint32_t i = 0; i < 3; ++i) {
    cluster.set_actor(ProcessId{i},
                      std::make_unique<Pinger>(ProcessId{3}, kCount,
                                               /*pad=*/i * 17 + 5));
  }
  cluster.set_actor(ProcessId{3}, std::move(checker));
  EXPECT_TRUE(cluster.run()) << "unstopped: " << cluster.unstopped().size();
  EXPECT_EQ(view->finished(), 3);

  const TcpLinkStats stats = cluster.link_stats();
  // The first-frame kill hit (at least) the three firehose links, so the
  // epoll loop saw its fd set churn while frames were in flight.
  EXPECT_GE(stats.kills_injected, 3u);
  EXPECT_GE(stats.reconnects, 3u);
  EXPECT_GE(stats.retransmits, 1u);
  assert_fifo_exactly_once(cluster, kN);
}

// ------------------------------------------------ slow-reader backpressure

// The checker sleeps per delivery while the pinger fires 64 KiB frames as
// fast as it can: the kernel buffers fill, sends go partial, and the
// sender's epoll loop must finish each frame through EPOLLOUT re-arms.
// Nothing may be dropped, reordered or duplicated — backpressure, not
// loss.
TEST(EpollChaos, SlowReaderBackpressureKeepsFifoExactlyOnce) {
  static constexpr int kCount = 120;
  static constexpr std::size_t kPad = 64 * 1024;

  class SlowChecker final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId from,
                    const Bytes& payload) override {
      if (from != ProcessId{0}) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Reader r(payload);
      ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_)) << "FIFO broken";
      ASSERT_EQ(r.remaining(), kPad);
      if (++next_ == kCount) {
        ctx.send(ProcessId{0}, Bytes{1});
        ctx.stop();
      }
    }

    int delivered() const { return next_; }

   private:
    int next_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 43;
  cfg.budget = std::chrono::milliseconds(30'000);
  cfg.audit_deliveries = true;
  TcpCluster cluster(cfg);

  auto checker = std::make_unique<SlowChecker>();
  SlowChecker* view = checker.get();
  cluster.set_actor(ProcessId{0},
                    std::make_unique<Pinger>(ProcessId{1}, kCount, kPad));
  cluster.set_actor(ProcessId{1}, std::move(checker));
  EXPECT_TRUE(cluster.run()) << "unstopped: " << cluster.unstopped().size();
  EXPECT_EQ(view->delivered(), kCount);

  // ~7.5 MiB crossed one link against a reader consuming ≤ 1 frame/ms.
  EXPECT_GE(cluster.link_stats().bytes_sent,
            static_cast<std::uint64_t>(kCount) * kPad);
  assert_fifo_exactly_once(cluster, cfg.n);
}

// ---------------------------------------------------- batch coalescing

// Frames that pile up while the actor is busy must be drained into one
// multi-frame on_batch dispatch (capped by kMaxBatch).  The receiver
// stalls inside its first dispatches, so later drains are guaranteed to
// find queued frames.
TEST(EpollChaos, BurstArrivalsCoalesceIntoBatchDispatches) {
  static constexpr int kCount = 300;

  class BatchObserver final : public sim::Actor {
   public:
    void on_batch(sim::Context& ctx,
                  std::vector<sim::Incoming>& batch) override {
      max_batch_ = std::max(max_batch_, batch.size());
      if (stalls_ > 0) {
        --stalls_;  // let the mailbox fill behind our back
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      for (sim::Incoming& m : batch) {
        Reader r(m.payload);
        ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_)) << "order";
        if (++next_ == kCount) {
          ctx.send(ProcessId{0}, Bytes{1});
          ctx.stop();
        }
      }
    }
    void on_message(sim::Context&, ProcessId, const Bytes&) override {
      FAIL() << "cluster must dispatch through on_batch";
    }

    std::size_t max_batch() const { return max_batch_; }
    int delivered() const { return next_; }

   private:
    int next_ = 0;
    int stalls_ = 3;
    std::size_t max_batch_ = 0;
  };

  TcpClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 47;
  cfg.budget = std::chrono::milliseconds(20'000);
  TcpCluster cluster(cfg);

  auto observer = std::make_unique<BatchObserver>();
  BatchObserver* view = observer.get();
  cluster.set_actor(ProcessId{0},
                    std::make_unique<Pinger>(ProcessId{1}, kCount,
                                             /*pad=*/24));
  cluster.set_actor(ProcessId{1}, std::move(observer));
  EXPECT_TRUE(cluster.run()) << "unstopped: " << cluster.unstopped().size();

  EXPECT_EQ(view->delivered(), kCount);
  EXPECT_GE(view->max_batch(), 2u) << "no multi-frame batch ever formed";
  EXPECT_LE(view->max_batch(), kMaxBatch);
}

// ------------------------------------------------------- signal storms

// A stream of SIGUSR1s installed WITHOUT SA_RESTART lands while the node
// loops sit in epoll_wait / accept / read / write, so those syscalls fail
// with EINTR mid-drain.  Every loop must treat EINTR as "retry", never as
// "link dead" or "backlog drained" — a dropped accept sweep or an
// abandoned read batch shows up as a missing or duplicated frame in the
// exactly-once audit.  Regression test for the accept/wake-drain EINTR
// handling in the epoll loop.
TEST(EpollChaos, SignalStormMidDrainKeepsFifoExactlyOnce) {
  constexpr std::uint32_t kN = 3;
  static constexpr int kCount = 200;

  class Checker final : public sim::Actor {
   public:
    void on_message(sim::Context& ctx, ProcessId from,
                    const Bytes& payload) override {
      ASSERT_LT(from.value, 2u);
      Reader r(payload);
      ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(next_[from.value]))
          << "per-sender FIFO broken on p" << from.value + 1;
      if (++next_[from.value] == kCount) {
        ctx.send(from, Bytes{1});
        if (++finished_ == 2) ctx.stop();
      }
    }

    int finished() const { return finished_; }

   private:
    int next_[2] = {0, 0};
    int finished_ = 0;
  };

  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: syscalls must see EINTR
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> storm_on{true};
  std::thread storm([&storm_on] {
    while (storm_on.load()) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  TcpClusterConfig cfg;
  cfg.n = kN;
  cfg.seed = 53;
  cfg.budget = std::chrono::milliseconds(30'000);
  cfg.audit_deliveries = true;
  // Link kills force reconnects, so the accept path runs under the storm
  // too — not just the steady-state read path.
  cfg.faults = chaos_plan(cfg.seed, 0.02);
  TcpCluster cluster(cfg);

  auto checker = std::make_unique<Checker>();
  Checker* view = checker.get();
  for (std::uint32_t i = 0; i < 2; ++i) {
    cluster.set_actor(ProcessId{i},
                      std::make_unique<Pinger>(ProcessId{2}, kCount,
                                               /*pad=*/i * 11 + 9));
  }
  cluster.set_actor(ProcessId{2}, std::move(checker));
  const bool ran = cluster.run();

  storm_on.store(false);
  storm.join();
  ::sigaction(SIGUSR1, &old, nullptr);

  EXPECT_TRUE(ran) << "unstopped: " << cluster.unstopped().size();
  EXPECT_EQ(view->finished(), 2);
  EXPECT_GE(cluster.link_stats().reconnects, 2u);
  assert_fifo_exactly_once(cluster, kN);
}

}  // namespace
}  // namespace modubft::transport
