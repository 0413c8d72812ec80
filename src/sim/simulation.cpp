#include "sim/simulation.hpp"

#include "common/check.hpp"

namespace modubft::sim {

/// Concrete Context binding an actor callback to the simulated world.
class Simulation::SimContext final : public Context {
 public:
  SimContext(Simulation& world, ProcessId self) : world_(world), self_(self) {}

  ProcessId id() const override { return self_; }
  std::uint32_t n() const override { return world_.n(); }
  SimTime now() const override { return world_.now(); }

  void send(ProcessId to, Bytes payload) override {
    world_.enqueue_message(self_, to, std::move(payload));
  }

  void broadcast(const Bytes& payload) override {
    for (std::uint32_t i = 0; i < world_.n(); ++i) {
      world_.enqueue_message(self_, ProcessId{i}, payload);
    }
  }

  std::uint64_t set_timer(SimTime delay) override {
    ProcessState& ps = world_.state_[self_.value];
    const std::uint64_t id = ps.next_timer_id++;
    const std::uint64_t epoch = ps.epoch;
    const ProcessId owner = self_;
    Simulation& world = world_;
    world_.queue_.push(world_.now_ + delay, [&world, owner, id, epoch] {
      world.fire_timer(owner, id, epoch);
    });
    return id;
  }

  void cancel_timer(std::uint64_t timer_id) override {
    world_.state_[self_.value].cancelled_timers.insert(timer_id);
  }

  Rng& rng() override { return *world_.state_[self_.value].rng; }

  void stop() override { world_.state_[self_.value].stopped = true; }

 private:
  Simulation& world_;
  ProcessId self_;
};

Simulation::Simulation(SimConfig config)
    : config_(config), net_rng_(Rng(config.seed).split(0xabcdef)) {
  MODUBFT_EXPECTS(config.n > 0);
  state_.resize(config_.n);
  Rng root(config_.seed);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    state_[i].rng = std::make_unique<Rng>(root.split(i + 1));
  }
  channel_clear_.assign(config_.n, std::vector<SimTime>(config_.n, 0));
  channel_delay_.assign(config_.n, std::vector<ChannelDelay>(config_.n));
}

void Simulation::delay_channel(ProcessId from, ProcessId to, SimTime extra,
                               SimTime until) {
  MODUBFT_EXPECTS(from.value < config_.n);
  MODUBFT_EXPECTS(to.value < config_.n);
  channel_delay_[from.value][to.value] = ChannelDelay{extra, until};
}

void Simulation::delay_process(ProcessId victim, SimTime extra,
                               SimTime until) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    delay_channel(victim, ProcessId{i}, extra, until);
    delay_channel(ProcessId{i}, victim, extra, until);
  }
}

Simulation::~Simulation() = default;

void Simulation::set_actor(ProcessId id, std::unique_ptr<Actor> actor) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!started_);
  state_[id.value].actor = std::move(actor);
}

void Simulation::crash_at(ProcessId id, SimTime when) {
  MODUBFT_EXPECTS(id.value < config_.n);
  state_[id.value].crash_time = when;
  queue_.push(when, [this, id] { state_[id.value].crashed = true; });
}

void Simulation::crash_now(ProcessId id) {
  MODUBFT_EXPECTS(id.value < config_.n);
  state_[id.value].crash_time = now_;
  state_[id.value].crashed = true;
}

void Simulation::restart_at(ProcessId id, SimTime when,
                            std::function<std::unique_ptr<Actor>()> factory) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(factory != nullptr);
  queue_.push(when, [this, id, factory = std::move(factory)] {
    ProcessState& ps = state_[id.value];
    // One-shot: only a process that actually died comes back.  (If the
    // crash never fired, or the world drained first, this is a no-op —
    // run() also exits on all-stopped before reaching a pending restart.)
    if (!ps.crashed) return;
    ps.crashed = false;
    ps.stopped = false;
    ps.epoch += 1;
    ps.cancelled_timers.clear();
    ps.actor = factory();
    SimContext ctx(*this, id);
    ps.actor->on_start(ctx);
  });
}

void Simulation::set_delivery_tap(std::function<void(const Delivery&)> tap) {
  tap_ = std::move(tap);
}

void Simulation::enqueue_message(ProcessId from, ProcessId to, Bytes payload) {
  MODUBFT_EXPECTS(to.value < config_.n);
  // A crashed or stopped sender emits nothing (its last callback may still
  // be unwinding; sends issued after the halt are suppressed here).
  if (!live(from)) return;

  stats_.messages_sent += 1;
  stats_.bytes_sent += payload.size();

  const SimTime send_time = now_;
  SimTime arrival = now_ + config_.latency.sample(net_rng_, now_);
  const ChannelDelay& slow = channel_delay_[from.value][to.value];
  if (now_ < slow.until) arrival += slow.extra;
  // FIFO: never deliver before an earlier message on the same channel.
  SimTime& clear = channel_clear_[from.value][to.value];
  if (arrival <= clear) arrival = clear + 1;
  clear = arrival;

  queue_.push(arrival, [this, from, to, payload = std::move(payload),
                        send_time] { deliver(from, to, payload, send_time); });
}

void Simulation::deliver(ProcessId from, ProcessId to, const Bytes& payload,
                         SimTime send_time) {
  if (!live(to)) return;
  stats_.messages_delivered += 1;
  if (tap_) tap_(Delivery{send_time, now_, from, to, payload.size(), &payload});
  SimContext ctx(*this, to);
  state_[to.value].actor->on_message(ctx, from, payload);
}

void Simulation::fire_timer(ProcessId owner, std::uint64_t timer_id,
                            std::uint64_t epoch) {
  ProcessState& ps = state_[owner.value];
  if (ps.epoch != epoch) return;  // armed by a pre-restart life
  if (ps.cancelled_timers.erase(timer_id) > 0) return;
  if (!live(owner)) return;
  SimContext ctx(*this, owner);
  ps.actor->on_timer(ctx, timer_id);
}

void Simulation::start_if_needed() {
  if (started_) return;
  started_ = true;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    MODUBFT_EXPECTS(state_[i].actor != nullptr);
  }
  // Start order is part of the deterministic schedule.
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const ProcessId id{i};
    queue_.push(0, [this, id] {
      if (!live(id)) return;
      SimContext ctx(*this, id);
      state_[id.value].actor->on_start(ctx);
    });
  }
}

bool Simulation::run_until(SimTime t) {
  start_if_needed();
  while (!queue_.empty() && queue_.next_time() <= t) {
    if (stats_.events_executed >= kMaxEvents) break;
    step();
  }
  return !queue_.empty();
}

RunOutcome Simulation::run(const std::function<bool()>& done) {
  start_if_needed();

  while (!queue_.empty()) {
    if (queue_.next_time() > config_.max_time) return RunOutcome::kTimeLimit;
    if (stats_.events_executed >= kMaxEvents)
      return RunOutcome::kEventLimit;

    bool any_live = false;
    for (std::uint32_t i = 0; i < config_.n; ++i) {
      if (live(ProcessId{i})) {
        any_live = true;
        break;
      }
    }
    if (!any_live) return RunOutcome::kAllStopped;

    step();
    if (done && done()) return RunOutcome::kAllStopped;
  }
  return RunOutcome::kQuiescent;
}

void Simulation::step() {
  MODUBFT_EXPECTS(pending());
  Event e = queue_.pop();
  MODUBFT_ASSERT(e.time >= now_);
  now_ = e.time;
  stats_.events_executed += 1;
  e.action();
}

}  // namespace modubft::sim
