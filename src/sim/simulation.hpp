// Deterministic simulation of an asynchronous message-passing system.
//
// Model (paper §2): n processes, every pair connected by a reliable FIFO
// channel, no bound on relative speeds or transfer delays.  The simulation
// enforces exactly these guarantees:
//   * reliable   — a message sent to a non-crashed process is delivered
//                  exactly once (unless the destination crashes first);
//   * FIFO       — deliveries on each ordered pair (src,dst) preserve send
//                  order even though latencies are random;
//   * async      — per-message latencies come from a LatencyModel, which can
//                  be arbitrarily turbulent before a chosen GST.
// Crash faults are first-class (crash_at); arbitrary faults are produced by
// wrapping Actors (see faults/), never by the network, matching the model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "sim/actor.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"

namespace modubft::sim {

/// Why Simulation::run returned.
enum class RunOutcome {
  kQuiescent,   // no pending events remained
  kAllStopped,  // every live actor called stop()
  kTimeLimit,   // simulated-time budget exhausted
  kEventLimit,  // event-count budget exhausted
};

/// Aggregate counters for one run, summed over every process by the
/// runtime itself (so their rule is kSum, and no runner merges them).
struct Stats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_executed = 0;

  using Self = Stats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"messages_sent", &Self::messages_sent, metrics::kSum},
      {"messages_delivered", &Self::messages_delivered, metrics::kSum},
      {"bytes_sent", &Self::bytes_sent, metrics::kSum},
      {"events_executed", &Self::events_executed, metrics::kSum},
  };
};

/// A delivered-message record handed to the optional tap.
struct Delivery {
  SimTime send_time = 0;
  SimTime deliver_time = 0;
  ProcessId from;
  ProcessId to;
  std::size_t size = 0;
  /// Wire bytes of the delivered message.  Non-owning: valid only for the
  /// duration of the tap call (copy if you need to keep it).
  const Bytes* payload = nullptr;
};

/// Event budget of one run: a run that executes this many events ends
/// with RunOutcome::kEventLimit.
inline constexpr std::uint64_t kMaxEvents = 50'000'000;

struct SimConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  LatencyModel latency = calm_network();
  SimTime max_time = 60'000'000;        // 60 simulated seconds
};

/// The simulated world: actors, channels, clock, crash schedule.
class Simulation {
 public:
  explicit Simulation(SimConfig config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Installs the actor for process `id`.  Must be called for all ids
  /// before run().
  void set_actor(ProcessId id, std::unique_ptr<Actor> actor);

  /// Schedules a crash: at `when`, the process halts silently.  Messages it
  /// sent before `when` are still delivered (they are already in the
  /// channel); nothing is delivered to or sent by it afterwards.
  void crash_at(ProcessId id, SimTime when);

  /// The progress-kill hook: halts `id` at the current instant.  Call it
  /// only from `id`'s own callback (a kill that fires on the victim's
  /// progress, faults::CrashSpec::after_commit); whatever the callback
  /// sends from then on is suppressed.  A restart goes through restart_at.
  void crash_now(ProcessId id);

  /// Schedules a restart of a previously crashed process: at `when`,
  /// `factory()` builds a FRESH actor that is started in place of the dead
  /// one (same process id, same rng stream — the schedule stays
  /// deterministic).  Timers set by the former life never fire (each life
  /// has an epoch; stale timer events are discarded).  One-shot: if the
  /// process is not crashed at `when` (never crashed, or the run already
  /// ended), the event is a no-op.  run() ends as all-stopped once every
  /// other process has stopped, so a restart still pending then never
  /// fires.
  void restart_at(ProcessId id, SimTime when,
                  std::function<std::unique_ptr<Actor>()> factory);

  /// Optional observer invoked on every delivery (tracing, statistics).
  void set_delivery_tap(std::function<void(const Delivery&)> tap);

  /// Adversarial timing control: every message sent on (from → to) while
  /// now < until suffers `extra` additional delay.  Still asynchronous-
  /// model-compliant (all delays stay finite), but lets experiments create
  /// targeted asymmetries — e.g. slowing one process until it is falsely
  /// suspected — instead of only statistical turbulence.
  void delay_channel(ProcessId from, ProcessId to, SimTime extra,
                     SimTime until);

  /// Applies delay_channel to every channel touching `victim`.
  void delay_process(ProcessId victim, SimTime extra, SimTime until);

  /// Runs until quiescence, all-stopped, or a budget limit.  `done`, when
  /// given, is the caller's end condition: it is checked after every
  /// event, and once it holds the run ends as all-stopped.
  RunOutcome run(const std::function<bool()>& done = nullptr);

  /// Runs every event scheduled at or before `t` (starting the actors if
  /// needed).  Returns true while events remain afterwards.  Useful for
  /// probing mid-run state (detector outputs, partial progress).
  bool run_until(SimTime t);

  /// Executes a single event.  Precondition: pending() is true.
  void step();

  bool pending() const { return !queue_.empty(); }

  SimTime now() const { return now_; }
  std::uint32_t n() const { return config_.n; }
  const Stats& stats() const { return stats_; }

  bool crashed(ProcessId id) const { return state_[id.value].crashed; }
  bool stopped(ProcessId id) const { return state_[id.value].stopped; }

  /// True once the process has crashed or voluntarily stopped.
  bool halted(ProcessId id) const {
    return state_[id.value].crashed || state_[id.value].stopped;
  }

 private:
  class SimContext;

  struct ProcessState {
    std::unique_ptr<Actor> actor;
    std::optional<SimTime> crash_time;
    bool crashed = false;
    bool stopped = false;
    std::unique_ptr<Rng> rng;
    std::uint64_t next_timer_id = 1;
    std::unordered_set<std::uint64_t> cancelled_timers;
    /// Incremented on every restart; timer events capture the epoch they
    /// were armed in and are dropped if the process has since been reborn.
    std::uint64_t epoch = 0;
  };

  void start_if_needed();
  void enqueue_message(ProcessId from, ProcessId to, Bytes payload);
  void deliver(ProcessId from, ProcessId to, const Bytes& payload,
               SimTime send_time);
  void fire_timer(ProcessId owner, std::uint64_t timer_id,
                  std::uint64_t epoch);
  bool live(ProcessId id) const {
    const ProcessState& ps = state_[id.value];
    return !ps.crashed && !ps.stopped;
  }

  SimConfig config_;
  EventQueue queue_;
  SimTime now_ = 0;
  Rng net_rng_;
  std::vector<ProcessState> state_;
  // channel_clear_[from][to]: earliest time the channel is free, used to
  // force FIFO delivery despite random latency samples.
  std::vector<std::vector<SimTime>> channel_clear_;
  struct ChannelDelay {
    SimTime extra = 0;
    SimTime until = 0;
  };
  std::vector<std::vector<ChannelDelay>> channel_delay_;
  Stats stats_;
  std::function<void(const Delivery&)> tap_;
  bool started_ = false;
};

}  // namespace modubft::sim
