// The wall-clock node runtime on both of its wires: the in-memory
// transport::Cluster and the loopback-socket TcpCluster.  Every case runs
// once per wire.  No assertion leans on a wall-clock margin: each relies
// only on the order in which the runtime itself dispatches events, and
// the run budget is a hang guard, never a measurement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "transport/cluster.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft::transport {
namespace {

template <class Wire>
using ConfigOf = std::conditional_t<std::is_same_v<Wire, TcpCluster>,
                                    TcpClusterConfig, ClusterConfig>;

struct WireName {
  template <class Wire>
  static std::string GetName(int) {
    return std::is_same_v<Wire, TcpCluster> ? "tcp" : "threads";
  }
};

template <class Wire>
class WallClockRuntime : public ::testing::Test {};

using Wires = ::testing::Types<Cluster, TcpCluster>;
TYPED_TEST_SUITE(WallClockRuntime, Wires, WireName);

/// Never stops and never sends: only the budget ends its run.
class Idle final : public sim::Actor {
 public:
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
};

/// Never stops; sends p1 one frame at start.
class Greet final : public sim::Actor {
 public:
  void on_start(sim::Context& ctx) override { ctx.send(ProcessId{1}, Bytes{1}); }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
};

/// Never stops; counts its deliveries.
class CountDeliveries final : public sim::Actor {
 public:
  explicit CountDeliveries(std::atomic<int>* count) : count_(count) {}
  void on_message(sim::Context&, ProcessId, const Bytes&) override {
    ++*count_;
  }

 private:
  std::atomic<int>* count_;
};

/// Stops as soon as it starts.
class StopAtOnce final : public sim::Actor {
 public:
  void on_start(sim::Context& ctx) override { ctx.stop(); }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
};

/// Stops on its first delivery.
class StopOnMessage final : public sim::Actor {
 public:
  void on_message(sim::Context& ctx, ProcessId, const Bytes&) override {
    ctx.stop();
  }
};

// A node scheduled to crash for good is never named a straggler — also
// when the budget runs out before its crash fires, the rule the simulator
// applies (docs/RUNTIME.md).  The never-stopping survivors are named.
TYPED_TEST(WallClockRuntime, PendingCrashVictimIsNotAStraggler) {
  ConfigOf<TypeParam> cfg;
  cfg.n = 3;
  cfg.budget = std::chrono::milliseconds(50);
  TypeParam cluster(cfg);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    cluster.set_actor(ProcessId{i}, std::make_unique<Idle>());
  }
  cluster.crash_after(ProcessId{2}, std::chrono::seconds(60));  // never fires
  EXPECT_FALSE(cluster.run());
  EXPECT_EQ(cluster.unstopped(),
            (std::vector<ProcessId>{ProcessId{0}, ProcessId{1}}));
}

// No node stops by itself; the caller's end condition, read from the
// run() poll while the nodes run, ends the run as if every node had
// stopped, and nobody is named a straggler.
TYPED_TEST(WallClockRuntime, EndConditionEndsARunWhoseNodesNeverStop) {
  ConfigOf<TypeParam> cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(10'000);  // hang guard only
  TypeParam cluster(cfg);
  std::atomic<int> delivered{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<Greet>());
  cluster.set_actor(ProcessId{1}, std::make_unique<CountDeliveries>(&delivered));

  EXPECT_TRUE(cluster.run([&delivered] { return delivered.load() >= 1; }));
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_TRUE(cluster.unstopped().empty());
}

struct RestartLog {
  std::atomic<int> factory_calls{0};
  std::atomic<int> fresh_starts{0};
  std::atomic<int> stale_fires{0};
};

// Timer delays of the two lives.  The fresh life starts after the first
// one did, so with kFirstLifeTimer < kFreshLifeTimer the first life's
// timer always falls due before the fresh one's: had it survived the
// restart, it would fire first.
constexpr SimTime kFirstLifeTimer = 5'000;
constexpr SimTime kFreshLifeTimer = 20'000;

/// The first life arms a timer and idles until its crash.  The crash
/// (1 ms) precedes the timer's due time, and the runtime checks the crash
/// before it fires timers, so that timer cannot fire in this life.
class FirstLife final : public sim::Actor {
 public:
  explicit FirstLife(RestartLog* log) : log_(log) {}
  void on_start(sim::Context& ctx) override { ctx.set_timer(kFirstLifeTimer); }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  void on_timer(sim::Context&, std::uint64_t) override { ++log_->stale_fires; }

 private:
  RestartLog* log_;
};

/// The fresh life counts its starts, reports any timer it did not arm,
/// and stops when its own timer fires, releasing p1 as it goes.
class FreshLife final : public sim::Actor {
 public:
  explicit FreshLife(RestartLog* log) : log_(log) {}
  void on_start(sim::Context& ctx) override {
    ++log_->fresh_starts;
    own_ = ctx.set_timer(kFreshLifeTimer);
  }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
  void on_timer(sim::Context& ctx, std::uint64_t id) override {
    if (id != own_) {
      ++log_->stale_fires;
      return;
    }
    ctx.send(ProcessId{1}, Bytes{1});
    ctx.stop();
  }

 private:
  RestartLog* log_;
  std::uint64_t own_ = 0;
};

// p1 stays up until the fresh life messages it: a restart pending after
// every other node stopped would be abandoned (the next case).
TYPED_TEST(WallClockRuntime, RestartStartsOneFreshLifeWithoutOldTimers) {
  ConfigOf<TypeParam> cfg;
  cfg.n = 2;
  cfg.budget = std::chrono::milliseconds(10'000);  // hang guard only
  TypeParam cluster(cfg);
  RestartLog log;
  cluster.set_actor(ProcessId{0}, std::make_unique<FirstLife>(&log));
  cluster.set_actor(ProcessId{1}, std::make_unique<StopOnMessage>());
  cluster.crash_after(ProcessId{0}, std::chrono::microseconds(1'000));
  cluster.set_restart(ProcessId{0}, std::chrono::microseconds(2'000), [&log] {
    ++log.factory_calls;
    return std::make_unique<FreshLife>(&log);
  });

  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(log.factory_calls.load(), 1);
  EXPECT_EQ(log.fresh_starts.load(), 1);
  EXPECT_EQ(log.stale_fires.load(), 0) << "a first-life timer fired";
  EXPECT_TRUE(cluster.stopped(ProcessId{0}));
  for (ProcessId id : cluster.unstopped()) EXPECT_NE(id, ProcessId{0});
}

// Every other node stopped while p2 waits for its restart: nobody is left
// to answer its fresh life, so the run ends as all-stopped at once and the
// restart is abandoned, as the simulator ends the same schedule.  The
// restart instant lies far past the kill, so the runtime sees p2 dormant
// long before it is due; the budget is a hang guard.
TYPED_TEST(WallClockRuntime, RestartPendingAfterEveryoneStoppedIsAbandoned) {
  ConfigOf<TypeParam> cfg;
  cfg.n = 3;
  cfg.budget = std::chrono::milliseconds(2'000);
  TypeParam cluster(cfg);
  std::atomic<int> factory_calls{0};
  cluster.set_actor(ProcessId{0}, std::make_unique<StopAtOnce>());
  cluster.set_actor(ProcessId{1}, std::make_unique<StopAtOnce>());
  cluster.set_actor(ProcessId{2}, std::make_unique<Idle>());
  cluster.crash_after(ProcessId{2}, std::chrono::microseconds(1'000));
  cluster.set_restart(ProcessId{2}, std::chrono::milliseconds(1'000),
                      [&factory_calls] {
                        ++factory_calls;
                        return std::make_unique<Idle>();
                      });

  EXPECT_TRUE(cluster.run());
  EXPECT_EQ(factory_calls.load(), 0);
  EXPECT_TRUE(cluster.unstopped().empty());
}

}  // namespace
}  // namespace modubft::transport
