// Substrate abstraction: one runtime contract over the three executors.
//
// The protocols are written once against sim::Actor / sim::Context; this
// layer makes the *harness* substrate-generic too.  A `Substrate` owns one
// of the three runtimes —
//   * kSim     — sim::Simulation: deterministic event queue, virtual time;
//   * kThreads — transport::Cluster: one OS thread per process, in-memory
//                MPSC mailboxes, wall clock;
//   * kTcp     — the same node runtime over transport::TcpCluster's wire:
//                loopback sockets, resilient framed channels, optional
//                link-fault injection —
// behind one interface: install actors, schedule crashes (CrashSpec),
// observe deliveries, run to completion, and read back a unified
// RunResult.  Scenario runners (faults/scenario.hpp) target this interface
// and therefore execute unmodified on all three backends; docs/RUNTIME.md
// spells out the contract each implementation upholds.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "faults/fault_spec.hpp"
#include "faults/link_fault.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"
#include "transport/tcp_cluster.hpp"

namespace modubft::runtime {

enum class Backend : std::uint8_t {
  kSim = 0,
  kThreads,
  kTcp,
};

const char* backend_name(Backend b);

/// Parses "sim" / "threads" / "tcp" (the scenario_cli vocabulary).
std::optional<Backend> parse_backend(const std::string& name);

/// Why Substrate::run returned.  Superset of sim::RunOutcome: the
/// wall-clock backends report kAllStopped on a clean run and
/// kBudgetExpired when the budget ran out with live nodes.
enum class RunOutcome : std::uint8_t {
  kQuiescent,      // sim only: no pending events remained
  kAllStopped,     // every live actor called stop()
  kTimeLimit,      // sim only: simulated-time budget exhausted
  kEventLimit,     // sim only: event-count budget exhausted
  kBudgetExpired,  // threads/tcp: wall-clock budget exhausted
};

const char* run_outcome_name(RunOutcome o);

/// Verification-cost counters: the CachingVerifier LRU (summed over the
/// run's correct processes) and the crypto::VerifyPool (one per run).
/// All zero when the scenario attaches neither.
struct VerifySummary {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t pool_workers = 0;
  std::uint64_t pool_jobs = 0;
  std::uint64_t pool_dispatched = 0;  // jobs run on a pool worker
  std::uint64_t pool_batches = 0;
  std::uint64_t pool_peak_queue = 0;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// SMR pipeline counters (smr::PipelineStats projected per run): slot /
/// command / batch tallies from one reference correct replica (they agree
/// by construction), buffering-and-drop counters summed over correct
/// replicas, window peak as the max.  All zero outside SMR scenarios.
struct PipelineSummary {
  std::uint64_t window = 0;  // configured W
  std::uint64_t batch = 0;   // configured B
  std::uint64_t slots_committed = 0;
  std::uint64_t commands_committed = 0;
  std::uint64_t noop_slots = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t window_peak = 0;
  double avg_window = 0.0;
  std::uint64_t future_buffered = 0;
  std::uint64_t future_dropped = 0;
  std::uint64_t stale_dropped = 0;
  // --- recovery subsystem (zero when checkpointing is off) ---
  std::uint64_t checkpoints_taken = 0;   // reference replica
  std::uint64_t checkpoint_certs = 0;    // reference replica
  std::uint64_t log_truncated = 0;       // summed over correct replicas
  std::uint64_t log_peak = 0;            // max over correct replicas
  std::uint64_t state_reqs = 0;          // summed
  std::uint64_t state_resps = 0;         // summed
  std::uint64_t recovery_installs = 0;   // summed
  std::uint64_t recovery_rejects = 0;    // summed
  /// Worst request-to-rejoin latency among recovered replicas (µs, 0 if
  /// none recovered).
  std::uint64_t recovery_us = 0;
};

/// Staged-ingest counters (smr::IngestStats summed over a run's correct
/// replicas, plus the staged/sequential knob actually in force).  All
/// zero when staged ingest is off or the substrate never delivered a
/// multi-frame batch — the deterministic simulator in particular
/// dispatches one message per event, so its batches never form.
struct IngestSummary {
  std::uint64_t staged = 0;  // 1 iff the staged pipeline was enabled
  std::uint64_t batches = 0;
  std::uint64_t batch_messages = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t prologue_frames = 0;
  std::uint64_t prologue_jobs = 0;

  double avg_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batch_messages) /
                              static_cast<double>(batches);
  }
};

/// Client/service-layer counters (run_smr_scenario with clients attached;
/// all zero otherwise).  Client-side tallies are summed over all clients
/// — with reply latencies merged into one distribution before the
/// percentiles are cut — and replica-side tallies are summed over the
/// correct replicas (queue_peak as the max: the shed bound is per
/// replica, so the peak is the number the admission cap must dominate).
struct ClientSummary {
  std::uint64_t clients = 0;  // configured client count
  // client side
  std::uint64_t submitted = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t busy = 0;
  std::uint64_t replies = 0;
  std::uint64_t duplicate_replies = 0;
  std::uint64_t mismatched_replies = 0;
  std::uint64_t accepted = 0;
  std::uint64_t fetches_answered = 0;  // CMD_FETCH ids answered with a body
  std::uint64_t bounds_sent = 0;       // SEQ_BOUND refutations sent
  std::uint64_t p50_us = 0;   // merged reply-latency percentiles
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  // replica side (smr::ClientServiceStats)
  std::uint64_t requests = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t replays = 0;
  std::uint64_t admitted = 0;
  std::uint64_t sheds = 0;
  std::uint64_t relays_sent = 0;
  std::uint64_t relays_received = 0;
  std::uint64_t relays_dropped = 0;
  std::uint64_t fetches_sent = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t parked_commits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t queue_peak = 0;  // max over correct replicas
  std::uint64_t auth_rejects = 0;      // bad client signatures rejected
  std::uint64_t ineligible_skips = 0;  // decided ids outside window/bound
  std::uint64_t origin_drops = 0;      // relays over the per-origin cap
  std::uint64_t bounds_recorded = 0;   // verified seq bounds accepted
};

/// Unified counters, comparable across backends.  The core message
/// counters are protocol-level on every substrate (counted at the
/// Context::send boundary and at actor dispatch), so a scenario's message
/// complexity can be diffed sim-vs-threads-vs-tcp field by field.
struct RunStats {
  sim::Stats net;
  /// Virtual end time (sim) — 0 on the wall-clock backends.
  SimTime virtual_time = 0;
  /// Wall-clock run duration in µs (measured on every backend): the whole
  /// event loop on kSim; on kThreads/kTcp transport::Cluster::elapsed(),
  /// from the epoch until every node thread joined — opening and closing
  /// the TCP wire is outside it.
  std::uint64_t wall_us = 0;
  /// kTcp only: frames/bytes actually written to sockets (retransmits
  /// included) — the wire-amplification companions to net.bytes_sent.
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  /// kTcp only: fault/recovery counters aggregated over all links.
  transport::TcpLinkStats link;
  /// Verification-cost counters (scenario runners fill these in; the
  /// substrates themselves have no crypto visibility).
  VerifySummary verify;
  /// SMR pipeline counters (run_smr_scenario only).
  PipelineSummary pipeline;
  /// Staged-ingest counters (run_smr_scenario only).
  IngestSummary ingest;
  /// Client/service-layer counters (run_smr_scenario with clients only).
  ClientSummary client;
};

/// One-line JSON object for benchmark emission (keys stable across
/// backends; TCP-only fields are 0 elsewhere).
std::string to_json(Backend backend, const RunStats& stats);

struct RunResult {
  RunOutcome outcome = RunOutcome::kQuiescent;
  /// True iff the run ended without hitting a time/event/budget limit.
  bool clean = false;
  /// Processes still live when a limit hit (named culprits; empty after a
  /// clean run).  Scheduled-crash victims are excluded.
  std::vector<ProcessId> unstopped;
  RunStats stats;
};

struct SubstrateConfig {
  Backend backend = Backend::kSim;
  std::uint32_t n = 0;
  std::uint64_t seed = 1;

  // --- kSim ---
  sim::LatencyModel latency = sim::calm_network();
  SimTime max_time = 120'000'000;
  std::uint64_t max_events = 50'000'000;

  // --- kThreads / kTcp ---
  /// Wall-clock budget; nodes still running afterwards are reported via
  /// RunResult::unstopped.
  std::chrono::milliseconds budget{20'000};

  // --- kTcp ---
  /// Link faults injected below the framing layer (empty = healthy).
  std::vector<faults::LinkFaultSpec> link_faults;
};

/// One runtime behind the uniform harness interface.  Usage mirrors the
/// underlying runtimes: set_actor for every id, optional crash/tap
/// scheduling, then exactly one run().
class Substrate {
 public:
  virtual ~Substrate() = default;

  virtual Backend backend() const = 0;
  virtual std::uint32_t n() const = 0;

  /// Installs the actor for `id`.  Call for every id before run().
  virtual void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor) = 0;

  /// Schedules a silent halt of `spec.who` at `spec.at` µs after the run
  /// starts — simulated time on kSim, wall clock on kThreads/kTcp.
  /// Messages already handed to the channels may still reach peers.
  virtual void crash(const faults::CrashSpec& spec) = 0;

  /// Schedules the restart half of a kill/restart schedule: `spec` must
  /// have been passed to crash() already and carry `restart_at`; at that
  /// instant `factory()` builds a FRESH actor that takes over the process
  /// (same id, same rng stream, empty timers; outage-era deliveries are
  /// discarded).  One-shot on every backend: a restart that would fire
  /// after the substrate began stopping is abandoned, never a hang.  A
  /// restarted process is expected to stop like any correct one, so it is
  /// NOT excluded from the unstopped audit.
  virtual void restart(const faults::CrashSpec& spec,
                       std::function<std::unique_ptr<sim::Actor>()> factory)
      = 0;

  /// Optional observer invoked on every delivery, before the receiving
  /// actor's on_message.  On the threaded backends calls are serialized by
  /// the runtime; `Delivery::payload` is valid only for the call.
  virtual void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) = 0;

  /// Runs to completion (or a limit) and reports the unified outcome.
  virtual RunResult run() = 0;
};

std::unique_ptr<Substrate> make_substrate(SubstrateConfig config);

}  // namespace modubft::runtime
