// Unit tests for the simulation substrate: determinism, FIFO channels,
// crash semantics, timers, run outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/serial.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace modubft::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(2); });
  q.push(10, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  q.push(42, [] {});
  EXPECT_EQ(q.next_time(), 42u);
}

TEST(Latency, SampleIsPositiveAndBounded) {
  LatencyModel m = calm_network();
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    SimTime s = m.sample(rng, 0);
    EXPECT_GE(s, 1u);
    EXPECT_LT(s, 100'000u);  // calm network: no heavy tail
  }
}

TEST(Latency, TurbulentSlowerBeforeGst) {
  LatencyModel m = turbulent_until(1'000'000);
  Rng rng(1);
  double pre = 0, post = 0;
  const int k = 4000;
  for (int i = 0; i < k; ++i) pre += static_cast<double>(m.sample(rng, 0));
  for (int i = 0; i < k; ++i)
    post += static_cast<double>(m.sample(rng, 2'000'000));
  EXPECT_GT(pre / k, post / k * 2);
}

// Test actor: records deliveries, echoes on request.
class Recorder final : public Actor {
 public:
  struct Event {
    SimTime time;
    ProcessId from;
    Bytes payload;
  };

  explicit Recorder(std::vector<Event>* log) : log_(log) {}

  void on_message(Context& ctx, ProcessId from, const Bytes& payload) override {
    log_->push_back({ctx.now(), from, payload});
  }

 private:
  std::vector<Event>* log_;
};

// Sends `count` numbered messages to process 1 at start.
class Burster final : public Actor {
 public:
  explicit Burster(int count) : count_(count) {}

  void on_start(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      Writer w;
      w.u32(static_cast<std::uint32_t>(i));
      ctx.send(ProcessId{1}, std::move(w).take());
    }
  }

  void on_message(Context&, ProcessId, const Bytes&) override {}

 private:
  int count_;
};

TEST(Simulation, FifoPerChannel) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(50));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.run();
  ASSERT_EQ(log.size(), 50u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    Reader r(log[i].payload);
    EXPECT_EQ(r.u32(), i) << "FIFO violated at delivery " << i;
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimConfig cfg;
    cfg.n = 3;
    cfg.seed = 17;
    Simulation world(cfg);
    std::vector<Recorder::Event> log;
    world.set_actor(ProcessId{0}, std::make_unique<Burster>(20));
    world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
    world.set_actor(ProcessId{2}, std::make_unique<Burster>(0));
    world.run();
    std::vector<SimTime> times;
    for (const auto& e : log) times.push_back(e.time);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, SeedChangesSchedule) {
  auto run_once = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.n = 2;
    cfg.seed = seed;
    Simulation world(cfg);
    std::vector<Recorder::Event> log;
    world.set_actor(ProcessId{0}, std::make_unique<Burster>(20));
    world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
    world.run();
    std::vector<SimTime> times;
    for (const auto& e : log) times.push_back(e.time);
    return times;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(Simulation, CrashStopsDeliveryAndSending) {
  // p1 sends a message every 1000µs; crashes at t=5000.
  class Ticker final : public Actor {
   public:
    void on_start(Context& ctx) override { ctx.set_timer(1000); }
    void on_timer(Context& ctx, std::uint64_t) override {
      Writer w;
      w.u32(1);
      ctx.send(ProcessId{1}, std::move(w).take());
      ctx.set_timer(1000);
    }
    void on_message(Context&, ProcessId, const Bytes&) override {}
  };

  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  cfg.max_time = 50'000;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Ticker>());
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.crash_at(ProcessId{0}, 5000);
  world.run();
  EXPECT_TRUE(world.crashed(ProcessId{0}));
  // At most ~5 ticks happened before the crash.
  EXPECT_LE(log.size(), 5u);
  EXPECT_GE(log.size(), 3u);
}

TEST(Simulation, MessagesInFlightAtCrashStillDelivered) {
  // Sender emits at t=0 and crashes immediately after: the channel is
  // reliable, so messages already sent must arrive.
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(3));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.crash_at(ProcessId{0}, 1);  // after on_start at t=0
  world.run();
  EXPECT_EQ(log.size(), 3u);
}

TEST(Simulation, CrashedDestinationReceivesNothing) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(3));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.crash_at(ProcessId{1}, 0);
  world.run();
  EXPECT_TRUE(log.empty());
}

TEST(Simulation, StopHaltsActor) {
  class StopAfterOne final : public Actor {
   public:
    explicit StopAfterOne(int* count) : count_(count) {}
    void on_message(Context& ctx, ProcessId, const Bytes&) override {
      ++*count_;
      ctx.stop();
    }
   private:
    int* count_;
  };

  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  int count = 0;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(10));
  world.set_actor(ProcessId{1}, std::make_unique<StopAfterOne>(&count));
  world.run();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(world.stopped(ProcessId{1}));
}

TEST(Simulation, TimerCancellation) {
  class Canceller final : public Actor {
   public:
    explicit Canceller(int* fired) : fired_(fired) {}
    void on_start(Context& ctx) override {
      std::uint64_t id = ctx.set_timer(100);
      ctx.set_timer(50);
      pending_ = id;
    }
    void on_timer(Context& ctx, std::uint64_t id) override {
      ++*fired_;
      if (id != pending_) ctx.cancel_timer(pending_);
    }
    void on_message(Context&, ProcessId, const Bytes&) override {}
   private:
    int* fired_;
    std::uint64_t pending_ = 0;
  };

  SimConfig cfg;
  cfg.n = 1;
  cfg.seed = 5;
  Simulation world(cfg);
  int fired = 0;
  world.set_actor(ProcessId{0}, std::make_unique<Canceller>(&fired));
  world.run();
  EXPECT_EQ(fired, 1);  // the 100µs timer was cancelled by the 50µs one
}

TEST(Simulation, BroadcastReachesAllIncludingSelf) {
  class Caster final : public Actor {
   public:
    void on_start(Context& ctx) override { ctx.broadcast({42}); }
    void on_message(Context&, ProcessId, const Bytes&) override {}
  };

  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 5;
  Simulation world(cfg);
  std::vector<Recorder::Event> a, b;
  world.set_actor(ProcessId{0}, std::make_unique<Caster>());
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&a));
  world.set_actor(ProcessId{2}, std::make_unique<Recorder>(&b));
  world.run();
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(world.stats().messages_sent, 3u);   // includes self-delivery
  EXPECT_EQ(world.stats().messages_delivered, 3u);
}

TEST(Simulation, StatsCountBytes) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(4));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.run();
  EXPECT_EQ(world.stats().messages_sent, 4u);
  EXPECT_EQ(world.stats().bytes_sent, 16u);  // 4 × u32
}

TEST(Simulation, DeliveryTapObservesTraffic) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  int tapped = 0;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(7));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.set_delivery_tap([&](const Delivery& d) {
    ++tapped;
    EXPECT_LE(d.send_time, d.deliver_time);
    EXPECT_EQ(d.from, (ProcessId{0}));
  });
  world.run();
  EXPECT_EQ(tapped, 7);
}

TEST(Simulation, RunOutcomeAllStopped) {
  class StopNow final : public Actor {
   public:
    void on_start(Context& ctx) override {
      ctx.set_timer(10);  // leaves a pending event behind
      ctx.stop();
    }
    void on_message(Context&, ProcessId, const Bytes&) override {}
  };

  SimConfig cfg;
  cfg.n = 1;
  cfg.seed = 5;
  Simulation world(cfg);
  world.set_actor(ProcessId{0}, std::make_unique<StopNow>());
  EXPECT_EQ(world.run(), RunOutcome::kAllStopped);
}

// The caller's end condition is checked after every event: the run ends
// as all-stopped right after the delivery that made it hold, with later
// deliveries still queued and no actor stopped.
TEST(Simulation, EndConditionEndsTheRunAfterTheEventThatMetIt) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(10));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  EXPECT_EQ(world.run([&log] { return log.size() >= 4; }),
            RunOutcome::kAllStopped);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_TRUE(world.pending());
  EXPECT_FALSE(world.halted(ProcessId{0}));
  EXPECT_FALSE(world.halted(ProcessId{1}));
}

TEST(Simulation, RunUntilExecutesPrefix) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(10));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.run_until(0);  // starts actors, delivers nothing (latency >= 1)
  EXPECT_TRUE(log.empty());
  world.run_until(10'000'000);
  EXPECT_EQ(log.size(), 10u);
  for (const auto& e : log) EXPECT_LE(e.time, 10'000'000u);
}

TEST(Simulation, RunUntilThenRunCompletes) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 4;
  Simulation world(cfg);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(5));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.run_until(150);  // partial
  const std::size_t partial = log.size();
  world.run();
  EXPECT_EQ(log.size(), 5u);
  EXPECT_LE(partial, 5u);
}

TEST(Trace, FingerprintDeterministicPerSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.n = 3;
    cfg.seed = seed;
    Simulation world(cfg);
    TraceRecorder trace;
    trace.attach(world);
    std::vector<Recorder::Event> log;
    world.set_actor(ProcessId{0}, std::make_unique<Burster>(25));
    world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
    world.set_actor(ProcessId{2}, std::make_unique<Burster>(0));
    world.run();
    return trace.fingerprint();
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  EXPECT_NE(fingerprint(5), fingerprint(6));
}

TEST(Trace, RecordsEveryDeliveryAndSummarizes) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  Simulation world(cfg);
  TraceRecorder trace;
  trace.attach(world);
  std::vector<Recorder::Event> log;
  world.set_actor(ProcessId{0}, std::make_unique<Burster>(7));
  world.set_actor(ProcessId{1}, std::make_unique<Recorder>(&log));
  world.run();
  EXPECT_EQ(trace.events().size(), 7u);
  auto channels = trace.by_channel();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels.at({0, 1}).messages, 7u);
  EXPECT_EQ(channels.at({0, 1}).bytes, 28u);

  std::ostringstream os;
  trace.write_jsonl(os);
  std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7);
  EXPECT_NE(text.find("\"from\":1"), std::string::npos);
}

TEST(Simulation, RunOutcomeTimeLimit) {
  class Forever final : public Actor {
   public:
    void on_start(Context& ctx) override { ctx.set_timer(1000); }
    void on_timer(Context& ctx, std::uint64_t) override { ctx.set_timer(1000); }
    void on_message(Context&, ProcessId, const Bytes&) override {}
  };

  SimConfig cfg;
  cfg.n = 1;
  cfg.seed = 5;
  cfg.max_time = 10'000;
  Simulation world(cfg);
  world.set_actor(ProcessId{0}, std::make_unique<Forever>());
  EXPECT_EQ(world.run(), RunOutcome::kTimeLimit);
}

}  // namespace
}  // namespace modubft::sim
