#include "runtime/substrate.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "transport/link_faults.hpp"

namespace modubft::runtime {

namespace {
using WallClock = std::chrono::steady_clock;

std::uint64_t wall_us_since(WallClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(WallClock::now() -
                                                            start)
          .count());
}

// ---------------------------------------------------------------- kSim

class SimSubstrate final : public Substrate {
 public:
  explicit SimSubstrate(SubstrateConfig config) : config_(std::move(config)) {
    sim::SimConfig sim_cfg;
    sim_cfg.n = config_.n;
    sim_cfg.seed = config_.seed;
    sim_cfg.latency = config_.latency;
    sim_cfg.max_time = config_.max_time;
    world_ = std::make_unique<sim::Simulation>(sim_cfg);
  }

  Backend backend() const override { return Backend::kSim; }
  std::uint32_t n() const override { return config_.n; }

  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) override {
    world_->set_actor(id, std::move(actor));
  }

  void crash(const faults::CrashSpec& spec) override {
    if (!spec.after_commit.has_value()) world_->crash_at(spec.who, spec.at);
    crash_scheduled_.insert(spec.who.value);
  }

  void restart(const faults::CrashSpec& spec,
               std::function<std::unique_ptr<sim::Actor>()> factory) override {
    MODUBFT_EXPECTS(spec.restart_at.has_value());
    if (spec.after_commit.has_value()) {
      // Scheduled by kill(), relative to the instant the kill fires.
      triggered_restarts_[spec.who.value] = {*spec.restart_at,
                                             std::move(factory)};
    } else {
      world_->restart_at(spec.who, *spec.restart_at, std::move(factory));
    }
    // A restarted process must stop like any correct one — keep it in the
    // unstopped audit so a hung recovery is a named failure.
    crash_scheduled_.erase(spec.who.value);
  }

  void kill(ProcessId who) override {
    world_->crash_now(who);
    auto it = triggered_restarts_.find(who.value);
    if (it != triggered_restarts_.end()) {
      world_->restart_at(who, world_->now() + it->second.delay,
                         std::move(it->second.factory));
      triggered_restarts_.erase(it);
    }
  }

  void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) override {
    world_->set_delivery_tap(std::move(tap));
  }

  RunResult run(std::function<bool()> done) override {
    const WallClock::time_point start = WallClock::now();
    const sim::RunOutcome out = world_->run(done);

    RunResult result;
    switch (out) {
      case sim::RunOutcome::kQuiescent:
        result.outcome = RunOutcome::kQuiescent;
        break;
      case sim::RunOutcome::kAllStopped:
        result.outcome = RunOutcome::kAllStopped;
        break;
      case sim::RunOutcome::kTimeLimit:
        result.outcome = RunOutcome::kTimeLimit;
        break;
      case sim::RunOutcome::kEventLimit:
        result.outcome = RunOutcome::kEventLimit;
        break;
    }
    result.clean = out == sim::RunOutcome::kQuiescent ||
                   out == sim::RunOutcome::kAllStopped;
    if (!result.clean) {
      for (std::uint32_t i = 0; i < config_.n; ++i) {
        if (!world_->halted(ProcessId{i}) && crash_scheduled_.count(i) == 0) {
          result.unstopped.push_back(ProcessId{i});
        }
      }
    }
    result.stats.net = world_->stats();
    result.stats.virtual_time = world_->now();
    result.stats.wall_us = wall_us_since(start);
    return result;
  }

 private:
  SubstrateConfig config_;
  std::unique_ptr<sim::Simulation> world_;
  std::set<std::uint32_t> crash_scheduled_;
  // The restarts of progress kills, by victim: scheduled when kill() fires.
  struct TriggeredRestart {
    SimTime delay = 0;  // after the kill
    std::function<std::unique_ptr<sim::Actor>()> factory;
  };
  std::map<std::uint32_t, TriggeredRestart> triggered_restarts_;
};

// ------------------------------------------------------ kThreads / kTcp

/// Both wall-clock backends run transport::Cluster's node runtime; kTcp
/// only swaps in TcpCluster's wire and reads its socket counters.
class WallClockSubstrate final : public Substrate {
 public:
  explicit WallClockSubstrate(SubstrateConfig config)
      : config_(std::move(config)) {
    transport::TcpClusterConfig cfg;
    cfg.n = config_.n;
    cfg.seed = config_.seed;
    cfg.budget = config_.budget;
    if (config_.backend != Backend::kTcp) {
      // The in-memory wire takes the ClusterConfig part only.
      cluster_ = std::make_unique<transport::Cluster>(cfg);
      return;
    }
    if (!config_.link_faults.empty()) {
      cfg.faults = transport::LinkFaultPlan(config_.link_faults, config_.seed);
    }
    auto tcp = std::make_unique<transport::TcpCluster>(std::move(cfg));
    tcp_ = tcp.get();
    cluster_ = std::move(tcp);
  }

  Backend backend() const override { return config_.backend; }
  std::uint32_t n() const override { return config_.n; }

  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) override {
    cluster_->set_actor(id, std::move(actor));
  }

  void crash(const faults::CrashSpec& spec) override {
    if (spec.after_commit.has_value()) {
      cluster_->crash_on_trigger(spec.who);
    } else {
      cluster_->crash_after(spec.who, std::chrono::microseconds(spec.at));
    }
  }

  void restart(const faults::CrashSpec& spec,
               std::function<std::unique_ptr<sim::Actor>()> factory) override {
    MODUBFT_EXPECTS(spec.restart_at.has_value());
    cluster_->set_restart(spec.who, std::chrono::microseconds(*spec.restart_at),
                          std::move(factory));
  }

  void kill(ProcessId who) override { cluster_->crash_now(who); }

  void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) override {
    cluster_->set_delivery_tap(std::move(tap));
  }

  RunResult run(std::function<bool()> done) override {
    const bool all_stopped = cluster_->run(done);

    RunResult result;
    result.outcome =
        all_stopped ? RunOutcome::kAllStopped : RunOutcome::kBudgetExpired;
    result.clean = all_stopped;
    result.unstopped = cluster_->unstopped();
    result.stats.net = cluster_->stats();
    result.stats.wall_us =
        static_cast<std::uint64_t>(cluster_->elapsed().count());
    if (tcp_ != nullptr) result.stats.link = tcp_->link_stats();
    return result;
  }

 private:
  SubstrateConfig config_;
  std::unique_ptr<transport::Cluster> cluster_;
  transport::TcpCluster* tcp_ = nullptr;  // cluster_ itself on kTcp
};

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kThreads: return "threads";
    case Backend::kTcp: return "tcp";
  }
  return "?";
}

std::optional<Backend> parse_backend(const std::string& name) {
  if (name == "sim") return Backend::kSim;
  if (name == "threads") return Backend::kThreads;
  if (name == "tcp") return Backend::kTcp;
  return std::nullopt;
}

const char* run_outcome_name(RunOutcome o) {
  switch (o) {
    case RunOutcome::kQuiescent: return "quiescent";
    case RunOutcome::kAllStopped: return "all-stopped";
    case RunOutcome::kTimeLimit: return "time-limit";
    case RunOutcome::kEventLimit: return "event-limit";
    case RunOutcome::kBudgetExpired: return "budget-expired";
  }
  return "?";
}

void PipelineSummary::fold(
    const std::vector<const smr::PipelineStats*>& replicas,
    const smr::PipelineStats* witness) {
  if (witness == nullptr && !replicas.empty()) witness = replicas.front();
  double occupancy = 0.0;
  for (const smr::PipelineStats* p : replicas) {
    metrics::merge(*this, *p, p == witness);
    if (p->window_samples > 0) {
      occupancy += static_cast<double>(p->window_occupancy_sum) /
                   static_cast<double>(p->window_samples);
    }
    if (p->recovery_join_us > 0 &&
        p->recovery_join_us >= p->recovery_start_us) {
      recovery_us =
          std::max(recovery_us, p->recovery_join_us - p->recovery_start_us);
    }
  }
  if (!replicas.empty()) {
    avg_window = occupancy / static_cast<double>(replicas.size());
  }
}

void ClientSummary::fold(const std::vector<const client::ClientStats*>& all) {
  clients = all.size();
  std::vector<SimTime> latencies;
  for (const client::ClientStats* c : all) {
    metrics::merge(*this, *c);
    latencies.insert(latencies.end(), c->latencies_us.begin(),
                     c->latencies_us.end());
  }
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  // Nearest rank: the ⌈q·N⌉-th smallest, clamped to [1, N].
  auto pct = [&](std::uint64_t permille) {
    const std::size_t rank = std::clamp<std::size_t>(
        (permille * latencies.size() + 999) / 1000, 1, latencies.size());
    return latencies[rank - 1];
  };
  p50_us = pct(500);
  p99_us = pct(990);
  p999_us = pct(999);
}

namespace {

/// Writes `part`'s declared counters as `,"key":value` pairs.
template <class S>
void write_counters(std::ostream& os, const S& part) {
  for (const metrics::Counter<S>& c : S::kCounters) {
    os << ",\"" << c.key << "\":" << part.*c.field;
  }
}

}  // namespace

std::string to_json(Backend backend, const RunStats& stats) {
  std::ostringstream os;
  os << "{\"backend\":\"" << backend_name(backend) << '"';
  write_counters(os, stats.net);
  os << ",\"virtual_time_us\":" << stats.virtual_time
     << ",\"wall_us\":" << stats.wall_us;
  write_counters<transport::ChannelStats>(os, stats.link);
  write_counters<transport::TcpLinkStats>(os, stats.link);
  const VerifySummary& v = stats.verify;
  write_counters<crypto::VerifyCacheStats>(os, v);
  os << ",\"cache_hit_rate\":" << v.hit_rate();
  const PipelineSummary& p = stats.pipeline;
  os << ",\"window\":" << p.window << ",\"batch\":" << p.batch
     << ",\"avg_window\":" << p.avg_window
     << ",\"recovery_us\":" << p.recovery_us;
  write_counters<smr::PipelineStats>(os, p);
  const ClientSummary& c = stats.client;
  os << ",\"client_clients\":" << c.clients << ",\"client_p50_us\":"
     << c.p50_us << ",\"client_p99_us\":" << c.p99_us
     << ",\"client_p999_us\":" << c.p999_us;
  write_counters<client::ClientStats>(os, c);
  write_counters<smr::ClientServiceStats>(os, c);
  os << '}';
  return os.str();
}

std::unique_ptr<Substrate> make_substrate(SubstrateConfig config) {
  MODUBFT_EXPECTS(config.n > 0);
  switch (config.backend) {
    case Backend::kSim:
      return std::make_unique<SimSubstrate>(std::move(config));
    case Backend::kThreads:
    case Backend::kTcp:
      return std::make_unique<WallClockSubstrate>(std::move(config));
  }
  MODUBFT_EXPECTS(false);
  return nullptr;
}

}  // namespace modubft::runtime
