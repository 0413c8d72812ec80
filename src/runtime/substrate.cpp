#include "runtime/substrate.hpp"

#include <chrono>
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
    sim_cfg.max_events = config_.max_events;
    world_ = std::make_unique<sim::Simulation>(sim_cfg);
  }

  Backend backend() const override { return Backend::kSim; }
  std::uint32_t n() const override { return config_.n; }

  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) override {
    world_->set_actor(id, std::move(actor));
  }

  void crash(const faults::CrashSpec& spec) override {
    world_->crash_at(spec.who, spec.at);
    crash_scheduled_.insert(spec.who.value);
  }

  void restart(const faults::CrashSpec& spec,
               std::function<std::unique_ptr<sim::Actor>()> factory) override {
    MODUBFT_EXPECTS(spec.restart_at.has_value());
    world_->restart_at(spec.who, *spec.restart_at, std::move(factory));
    // A restarted process must stop like any correct one — keep it in the
    // unstopped audit so a hung recovery is a named failure.
    crash_scheduled_.erase(spec.who.value);
  }

  void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) override {
    world_->set_delivery_tap(std::move(tap));
  }

  RunResult run() override {
    const WallClock::time_point start = WallClock::now();
    const sim::RunOutcome out = world_->run();

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
    cluster_->crash_after(spec.who, std::chrono::microseconds(spec.at));
  }

  void restart(const faults::CrashSpec& spec,
               std::function<std::unique_ptr<sim::Actor>()> factory) override {
    MODUBFT_EXPECTS(spec.restart_at.has_value());
    cluster_->set_restart(spec.who, std::chrono::microseconds(*spec.restart_at),
                          std::move(factory));
  }

  void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) override {
    cluster_->set_delivery_tap(std::move(tap));
  }

  RunResult run() override {
    const bool all_stopped = cluster_->run();

    RunResult result;
    result.outcome =
        all_stopped ? RunOutcome::kAllStopped : RunOutcome::kBudgetExpired;
    result.clean = all_stopped;
    result.unstopped = cluster_->unstopped();
    result.stats.net = cluster_->stats();
    result.stats.wall_us =
        static_cast<std::uint64_t>(cluster_->elapsed().count());
    if (tcp_ != nullptr) {
      result.stats.wire_frames = tcp_->frames_sent();
      result.stats.wire_bytes = tcp_->bytes_sent();
      result.stats.link = tcp_->link_stats();
    }
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

std::string to_json(Backend backend, const RunStats& stats) {
  std::ostringstream os;
  os << "{\"backend\":\"" << backend_name(backend) << '"'
     << ",\"messages_sent\":" << stats.net.messages_sent
     << ",\"messages_delivered\":" << stats.net.messages_delivered
     << ",\"bytes_sent\":" << stats.net.bytes_sent
     << ",\"events_executed\":" << stats.net.events_executed
     << ",\"virtual_time_us\":" << stats.virtual_time
     << ",\"wall_us\":" << stats.wall_us
     << ",\"wire_frames\":" << stats.wire_frames
     << ",\"wire_bytes\":" << stats.wire_bytes
     << ",\"reconnects\":" << stats.link.reconnects
     << ",\"retransmits\":" << stats.link.retransmits
     << ",\"frames_dropped\":" << stats.link.frames_dropped
     << ",\"kills_injected\":" << stats.link.kills_injected
     << ",\"checksum_failures\":" << stats.link.checksum_failures
     << ",\"dup_suppressed\":" << stats.link.dup_suppressed
     << ",\"cache_hits\":" << stats.verify.cache_hits
     << ",\"cache_misses\":" << stats.verify.cache_misses
     << ",\"cache_evictions\":" << stats.verify.cache_evictions
     << ",\"cache_hit_rate\":" << stats.verify.cache_hit_rate()
     << ",\"pool_workers\":" << stats.verify.pool_workers
     << ",\"pool_jobs\":" << stats.verify.pool_jobs
     << ",\"pool_dispatched\":" << stats.verify.pool_dispatched
     << ",\"pool_batches\":" << stats.verify.pool_batches
     << ",\"pool_peak_queue\":" << stats.verify.pool_peak_queue
     << ",\"window\":" << stats.pipeline.window
     << ",\"batch\":" << stats.pipeline.batch
     << ",\"slots_committed\":" << stats.pipeline.slots_committed
     << ",\"commands_committed\":" << stats.pipeline.commands_committed
     << ",\"noop_slots\":" << stats.pipeline.noop_slots
     << ",\"max_batch\":" << stats.pipeline.max_batch
     << ",\"window_peak\":" << stats.pipeline.window_peak
     << ",\"avg_window\":" << stats.pipeline.avg_window
     << ",\"future_buffered\":" << stats.pipeline.future_buffered
     << ",\"future_dropped\":" << stats.pipeline.future_dropped
     << ",\"stale_dropped\":" << stats.pipeline.stale_dropped
     << ",\"checkpoints_taken\":" << stats.pipeline.checkpoints_taken
     << ",\"checkpoint_certs\":" << stats.pipeline.checkpoint_certs
     << ",\"log_truncated\":" << stats.pipeline.log_truncated
     << ",\"log_peak\":" << stats.pipeline.log_peak
     << ",\"state_reqs\":" << stats.pipeline.state_reqs
     << ",\"state_resps\":" << stats.pipeline.state_resps
     << ",\"recovery_installs\":" << stats.pipeline.recovery_installs
     << ",\"recovery_rejects\":" << stats.pipeline.recovery_rejects
     << ",\"recovery_us\":" << stats.pipeline.recovery_us
     << ",\"ingest_staged\":" << stats.ingest.staged
     << ",\"ingest_batches\":" << stats.ingest.batches
     << ",\"ingest_batch_messages\":" << stats.ingest.batch_messages
     << ",\"ingest_max_batch\":" << stats.ingest.max_batch
     << ",\"ingest_avg_batch\":" << stats.ingest.avg_batch()
     << ",\"ingest_prologue_frames\":" << stats.ingest.prologue_frames
     << ",\"ingest_prologue_jobs\":" << stats.ingest.prologue_jobs
     << ",\"client_clients\":" << stats.client.clients
     << ",\"client_submitted\":" << stats.client.submitted
     << ",\"client_retries\":" << stats.client.retries
     << ",\"client_failovers\":" << stats.client.failovers
     << ",\"client_busy\":" << stats.client.busy
     << ",\"client_replies\":" << stats.client.replies
     << ",\"client_duplicate_replies\":" << stats.client.duplicate_replies
     << ",\"client_mismatched_replies\":" << stats.client.mismatched_replies
     << ",\"client_accepted\":" << stats.client.accepted
     << ",\"client_p50_us\":" << stats.client.p50_us
     << ",\"client_p99_us\":" << stats.client.p99_us
     << ",\"client_p999_us\":" << stats.client.p999_us
     << ",\"client_requests\":" << stats.client.requests
     << ",\"client_duplicates\":" << stats.client.duplicates
     << ",\"client_replays\":" << stats.client.replays
     << ",\"client_admitted\":" << stats.client.admitted
     << ",\"client_sheds\":" << stats.client.sheds
     << ",\"client_relays_sent\":" << stats.client.relays_sent
     << ",\"client_relays_received\":" << stats.client.relays_received
     << ",\"client_relays_dropped\":" << stats.client.relays_dropped
     << ",\"client_fetches_sent\":" << stats.client.fetches_sent
     << ",\"client_fetches_served\":" << stats.client.fetches_served
     << ",\"client_replies_sent\":" << stats.client.replies_sent
     << ",\"client_parked_commits\":" << stats.client.parked_commits
     << ",\"client_rejects\":" << stats.client.rejects
     << ",\"client_queue_peak\":" << stats.client.queue_peak
     << ",\"client_auth_rejects\":" << stats.client.auth_rejects
     << ",\"client_ineligible_skips\":" << stats.client.ineligible_skips
     << ",\"client_origin_drops\":" << stats.client.origin_drops
     << ",\"client_bounds_recorded\":" << stats.client.bounds_recorded
     << ",\"client_fetches_answered\":" << stats.client.fetches_answered
     << ",\"client_bounds_sent\":" << stats.client.bounds_sent << '}';
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
