#include "transport/cluster.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace modubft::transport {

namespace {
using Clock = std::chrono::steady_clock;

struct TimerEntry {
  Clock::time_point due;
  std::uint64_t id;
};
}  // namespace

struct Cluster::Node {
  ProcessId id;
  std::unique_ptr<sim::Actor> actor;
  Mailbox<Envelope> mailbox;
  std::unique_ptr<Rng> rng;

  // Timers: owned by the node thread exclusively.
  std::vector<TimerEntry> timers;  // unsorted; scanned for the earliest
  std::unordered_set<std::uint64_t> cancelled;
  std::uint64_t next_timer_id = 1;

  std::atomic<bool> stop_requested{false};
  std::atomic<bool> stopped{false};
  // crash_at / restart_at are rebased onto the epoch before the node
  // thread spawns and are owned by the node thread afterwards (the run()
  // straggler audit reads only the immutable *_scheduled flags).  A
  // crash_on_trigger node has neither until crash_now() sets both, the
  // restart `restart_delay` after the kill.
  std::optional<Clock::time_point> crash_at;
  std::optional<Clock::time_point> restart_at;
  std::optional<Clock::duration> restart_delay;
  std::function<std::unique_ptr<sim::Actor>()> restart_factory;
  bool crash_scheduled = false;
  bool crash_on_trigger = false;
  bool restart_scheduled = false;
  // Set by crash_now() on the node thread: the rest of the callback that
  // fired the kill sends nothing.
  bool killed = false;
  // Crashed and waiting for its restart (guarded by Cluster::restart_mu_).
  bool dormant = false;
};

/// Context bound to one callback execution on the node thread.
class Cluster::NodeContext final : public sim::Context {
 public:
  NodeContext(Cluster& cluster, Node& node) : cluster_(cluster), node_(node) {}

  ProcessId id() const override { return node_.id; }
  std::uint32_t n() const override { return cluster_.config_.n; }

  SimTime now() const override {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - cluster_.epoch_)
            .count());
  }

  void send(ProcessId to, Bytes payload) override {
    MODUBFT_EXPECTS(to.value < cluster_.config_.n);
    if (node_.killed) return;
    cluster_.stats_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    cluster_.stats_.bytes_sent.fetch_add(payload.size(),
                                         std::memory_order_relaxed);
    if (to == node_.id) {
      cluster_.deliver(node_.id, to, std::move(payload));
    } else {
      cluster_.transmit(node_.id, to, std::move(payload));
    }
  }

  void broadcast(const Bytes& payload) override {
    if (node_.killed) return;
    cluster_.stats_.messages_sent.fetch_add(cluster_.config_.n,
                                            std::memory_order_relaxed);
    cluster_.stats_.bytes_sent.fetch_add(
        payload.size() * cluster_.config_.n, std::memory_order_relaxed);
    cluster_.deliver(node_.id, node_.id, payload);
    cluster_.transmit_to_peers(node_.id, payload);
  }

  std::uint64_t set_timer(SimTime delay) override {
    const std::uint64_t id = node_.next_timer_id++;
    node_.timers.push_back(
        TimerEntry{Clock::now() + std::chrono::microseconds(delay), id});
    return id;
  }

  void cancel_timer(std::uint64_t timer_id) override {
    node_.cancelled.insert(timer_id);
  }

  Rng& rng() override { return *node_.rng; }

  void stop() override { node_.stop_requested.store(true); }

 private:
  Cluster& cluster_;
  Node& node_;
};

Cluster::Cluster(ClusterConfig config) : config_(config) {
  MODUBFT_EXPECTS(config_.n > 0);
  Rng root(config_.seed);
  nodes_.reserve(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    auto node = std::make_unique<Node>();
    node->id = ProcessId{i};
    node->rng = std::make_unique<Rng>(root.split(i + 1));
    nodes_.push_back(std::move(node));
  }
}

Cluster::~Cluster() { stop_nodes(); }

void Cluster::stop_nodes() {
  for (auto& node : nodes_) {
    node->stop_requested.store(true);
    node->mailbox.close();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void Cluster::set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  nodes_[id.value]->actor = std::move(actor);
}

void Cluster::crash_after(ProcessId id, std::chrono::microseconds after) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  // Resolved against the epoch when run() starts.
  nodes_[id.value]->crash_at = Clock::time_point(after.count() >= 0
                                                     ? Clock::duration(after)
                                                     : Clock::duration::zero());
  nodes_[id.value]->crash_scheduled = true;
}

void Cluster::crash_on_trigger(ProcessId id) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  nodes_[id.value]->crash_scheduled = true;
  nodes_[id.value]->crash_on_trigger = true;
}

void Cluster::crash_now(ProcessId id) {
  MODUBFT_EXPECTS(id.value < config_.n);
  Node& node = *nodes_[id.value];
  MODUBFT_EXPECTS(node.crash_on_trigger);
  const Clock::time_point now = Clock::now();
  node.crash_at = now;
  node.killed = true;
  if (node.restart_delay.has_value()) {
    node.restart_at = now + *node.restart_delay;
  }
}

void Cluster::set_restart(ProcessId id, std::chrono::microseconds after,
                          std::function<std::unique_ptr<sim::Actor>()> factory) {
  MODUBFT_EXPECTS(id.value < config_.n);
  MODUBFT_EXPECTS(!ran_);
  Node& node = *nodes_[id.value];
  MODUBFT_EXPECTS(node.crash_scheduled);
  MODUBFT_EXPECTS(factory != nullptr);
  const Clock::duration offset =
      after.count() >= 0 ? Clock::duration(after) : Clock::duration::zero();
  if (node.crash_on_trigger) {
    node.restart_delay = offset;
  } else {
    node.restart_at = Clock::time_point(offset);
  }
  node.restart_factory = std::move(factory);
  node.restart_scheduled = true;
}

void Cluster::set_delivery_tap(std::function<void(const sim::Delivery&)> tap) {
  MODUBFT_EXPECTS(!ran_);
  tap_ = std::move(tap);
}

void Cluster::transmit(ProcessId from, ProcessId to, Bytes payload) {
  deliver(from, to, std::move(payload));
}

void Cluster::transmit_to_peers(ProcessId from, const Bytes& payload) {
  for (std::uint32_t j = 0; j < config_.n; ++j) {
    if (j != from.value) deliver(from, ProcessId{j}, payload);
  }
}

void Cluster::deliver(ProcessId from, ProcessId to, Bytes payload) {
  nodes_[to.value]->mailbox.push(
      Envelope{from, std::move(payload), since_epoch()});
}

SimTime Cluster::since_epoch() const {
  if (epoch_ == Clock::time_point{}) return 0;
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
}

void Cluster::tap_delivery(const Envelope& env, ProcessId to) {
  if (!tap_) return;
  // The payload copy happens on the node thread, outside tap_mu_: a tap
  // that stashes the bytes (the safety auditor does) must not stretch the
  // serialized section with a per-frame allocation, and the tap must never
  // observe a buffer another lock protects — the audit path cannot
  // introduce deadlock or delivery reordering beyond serialization.
  const Bytes payload = env.payload;
  sim::Delivery d;
  d.send_time = env.sent_at;
  d.deliver_time = since_epoch();
  d.from = env.from;
  d.to = to;
  d.size = payload.size();
  d.payload = &payload;
  std::lock_guard<std::mutex> lock(tap_mu_);
  tap_(d);
}

void Cluster::node_pump(Node& node, NodeContext& ctx) {
  while (!node.stop_requested.load()) {
    if (node.crash_at.has_value() && Clock::now() >= *node.crash_at) {
      break;  // silent halt: no more receives, no more sends
    }

    // Earliest pending timer bounds the mailbox wait.
    Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(20);
    const TimerEntry* earliest = nullptr;
    for (const TimerEntry& t : node.timers) {
      if (node.cancelled.count(t.id)) continue;
      if (earliest == nullptr || t.due < earliest->due) earliest = &t;
    }
    if (earliest != nullptr && earliest->due < deadline) {
      deadline = earliest->due;
    }
    if (node.crash_at.has_value() && *node.crash_at < deadline) {
      deadline = *node.crash_at;
    }

    std::vector<Envelope> drained = node.mailbox.drain_until(
        deadline, kMaxBatch);
    if (node.stop_requested.load()) break;
    if (node.crash_at.has_value() && Clock::now() >= *node.crash_at) break;

    if (!drained.empty()) {
      // Taps and counters fire per delivery, in delivery order, before the
      // batch dispatch; the actor then consumes the batch in that same
      // order (the ordering-ticket contract, docs/INGEST.md).
      std::vector<sim::Incoming> batch;
      batch.reserve(drained.size());
      for (Envelope& env : drained) {
        tap_delivery(env, node.id);
        stats_.messages_delivered.fetch_add(1, std::memory_order_relaxed);
        stats_.events_executed.fetch_add(1, std::memory_order_relaxed);
        batch.push_back(sim::Incoming{env.from, std::move(env.payload)});
      }
      node.actor->on_batch(ctx, batch);
      continue;
    }

    // Deadline expiry: fire every due timer.
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> due;
    node.timers.erase(
        std::remove_if(node.timers.begin(), node.timers.end(),
                       [&](const TimerEntry& t) {
                         if (node.cancelled.count(t.id)) {
                           node.cancelled.erase(t.id);
                           return true;
                         }
                         if (t.due <= now) {
                           due.push_back(t.id);
                           return true;
                         }
                         return false;
                       }),
        node.timers.end());
    for (std::uint64_t id : due) {
      if (node.stop_requested.load() || node.killed) break;
      stats_.events_executed.fetch_add(1, std::memory_order_relaxed);
      node.actor->on_timer(ctx, id);
    }
    if (node.mailbox.closed() && drained.empty() && node.timers.empty()) {
      break;  // shutdown requested by the cluster
    }
  }
}

void Cluster::node_main(Node& node) {
  NodeContext ctx(*this, node);
  for (;;) {
    node.actor->on_start(ctx);
    node_pump(node, ctx);

    // Crash with a scheduled restart: lie dormant (discarding deliveries —
    // a dead node receives nothing) until the restart instant, then come
    // back as a fresh actor.  One-shot semantics: a stop request during
    // the outage abandons the restart instead of hanging the teardown, and
    // so does run() finding every other node stopped.
    if (!node.crash_at.has_value() || Clock::now() < *node.crash_at ||
        !node.restart_at.has_value() || node.stop_requested.load()) {
      break;  // voluntary stop, teardown, or crash-for-good
    }
    {
      std::lock_guard<std::mutex> lock(restart_mu_);
      node.dormant = true;
    }
    bool aborted = false;
    while (Clock::now() < *node.restart_at) {
      if (node.stop_requested.load()) {
        aborted = true;
        break;
      }
      const Clock::time_point wait_until = std::min(
          *node.restart_at, Clock::now() + std::chrono::milliseconds(20));
      (void)node.mailbox.pop_until(wait_until);  // outage traffic is lost
    }
    if (aborted || node.stop_requested.load()) break;
    {
      std::lock_guard<std::mutex> lock(restart_mu_);
      if (abandon_restarts_) break;
      node.dormant = false;
    }
    node.actor = node.restart_factory();
    node.timers.clear();
    node.cancelled.clear();
    node.crash_at.reset();
    node.restart_at.reset();
    node.restart_factory = nullptr;
    node.killed = false;
  }
  node.stopped.store(true);
}

bool Cluster::all_stopped() {
  // A node awaiting its restart counts as stopped: every peer that could
  // answer its fresh life is gone, so the restart is abandoned, as the
  // simulator ends the same schedule.  A dormant node leaves dormancy only
  // under restart_mu_, so none comes back between this check and the
  // abandonment.
  std::lock_guard<std::mutex> lock(restart_mu_);
  for (auto& node : nodes_) {
    if (!node->stopped.load() && !node->dormant) return false;
  }
  abandon_restarts_ = true;
  return true;
}

bool Cluster::ended(const std::function<bool()>& done) {
  if (!done || !done()) return false;
  std::lock_guard<std::mutex> lock(restart_mu_);
  abandon_restarts_ = true;
  return true;
}

bool Cluster::run(const std::function<bool()>& done) {
  MODUBFT_EXPECTS(!ran_);
  ran_ = true;
  for (auto& node : nodes_) MODUBFT_EXPECTS(node->actor != nullptr);

  open_wire();
  epoch_ = Clock::now();
  // Rebase crash/restart deadlines onto the epoch.
  for (auto& node : nodes_) {
    if (node->crash_at.has_value()) {
      node->crash_at = epoch_ + node->crash_at->time_since_epoch();
    }
    if (node->restart_at.has_value()) {
      node->restart_at = epoch_ + node->restart_at->time_since_epoch();
    }
  }

  threads_.reserve(config_.n);
  for (auto& node : nodes_) {
    threads_.emplace_back([this, &node = *node] { node_main(node); });
  }

  const Clock::time_point deadline = epoch_ + config_.budget;
  bool clean = all_stopped() || ended(done);
  while (!clean && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    clean = all_stopped() || ended(done);
  }

  // Snapshot the stragglers before teardown forces everyone to stop, so a
  // budget expiry is diagnosable (and attributable) after run() returns.
  // A crash-for-good node is expected to never stop on its own; a node
  // with a restart schedule is expected to come back and finish, so it IS
  // reported if still running (the node thread owns crash_at by now —
  // audit only the immutable scheduling flags).
  for (auto& node : nodes_) {
    if (!clean && !node->stopped.load() &&
        (!node->crash_scheduled || node->restart_scheduled)) {
      unstopped_.push_back(node->id);
    }
  }

  stop_nodes();
  elapsed_ = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - epoch_);
  close_wire();

  if (!unstopped_.empty()) {
    std::ostringstream os;
    os << "Cluster: budget expired with unstopped nodes:";
    for (ProcessId id : unstopped_) os << ' ' << id;
    log_warn(os.str());
  }
  return clean;
}

bool Cluster::stopped(ProcessId id) const {
  MODUBFT_EXPECTS(id.value < config_.n);
  return nodes_[id.value]->stopped.load();
}

std::vector<ProcessId> Cluster::unstopped() const { return unstopped_; }

sim::Stats Cluster::stats() const {
  sim::Stats s;
  s.messages_sent = stats_.messages_sent.load();
  s.messages_delivered = stats_.messages_delivered.load();
  s.bytes_sent = stats_.bytes_sent.load();
  s.events_executed = stats_.events_executed.load();
  return s;
}

}  // namespace modubft::transport
