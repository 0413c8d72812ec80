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

#include "client/client.hpp"
#include "common/ids.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/fault_spec.hpp"
#include "faults/link_fault.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"
#include "smr/client_service.hpp"
#include "smr/replica.hpp"
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
/// kBudgetExpired when the budget ran out with live nodes.  A run whose
/// end condition held reports kAllStopped on every backend.
enum class RunOutcome : std::uint8_t {
  kQuiescent,      // sim only: no pending events remained
  kAllStopped,     // every live actor called stop(), or the end held
  kTimeLimit,      // sim only: simulated-time budget exhausted
  kEventLimit,     // sim only: event-count budget exhausted
  kBudgetExpired,  // threads/tcp: wall-clock budget exhausted
};

const char* run_outcome_name(RunOutcome o);

// ------------------------------------------------------- run statistics
//
// A run's counters are declared once, in the component struct that
// increments them (common/metrics.hpp): sim::Stats, transport::
// ChannelStats and TcpLinkStats, crypto::VerifyCacheStats,
// smr::PipelineStats and ClientServiceStats, and client::ClientStats.
// The summaries below derive from those structs, so a run-level member
// is the component's own; they add only the run's configuration and the
// keys derived from several fields.  The scenario runners fold each
// correct process in by the declared rules, and to_json walks the same
// tables.  A component field that only feeds a derived key stays zero
// here.

/// Verification cost: the CachingVerifier LRU, summed over the run's
/// correct processes.  All zero when the scenario attaches none.
struct VerifySummary : crypto::VerifyCacheStats {
  /// Always 0: every signature is checked inline.  perfbench's
  /// crypto.pool_offload_frac row still reads it; the next benchmark
  /// change deletes that reader and this member.
  std::uint64_t pool_jobs = 0;
  /// Always 0, for the same row; deleted with it.
  std::uint64_t pool_dispatched = 0;
};

/// SMR pipeline (run_smr_scenario only).
struct PipelineSummary : smr::PipelineStats {
  std::uint64_t window = 0;  // configured W
  std::uint64_t batch = 0;   // configured B
  /// Mean over the correct replicas of each one's window occupancy
  /// (window_occupancy_sum / window_samples).
  double avg_window = 0.0;
  /// Worst request-to-rejoin latency among recovered replicas
  /// (recovery_join_us − recovery_start_us; 0 if none recovered).
  std::uint64_t recovery_us = 0;

  /// Folds the correct replicas' pipelines in and derives the two keys
  /// above.  `witness` supplies the kWitness tallies; nullptr means every
  /// correct replica was killed, and the first of `replicas` stands in.
  void fold(const std::vector<const smr::PipelineStats*>& replicas,
            const smr::PipelineStats* witness);
};

/// No run fills it: replicas verify every frame inline.
struct IngestSummary {
  /// Always 0.  perfbench's byz-threads trace-mode fidelity check still
  /// reads it; the next benchmark change deletes that reader and this
  /// struct.
  std::uint64_t prologue_frames = 0;
};

/// Client/service layer (run_smr_scenario with clients attached; all zero
/// otherwise): the clients' own counters, and the correct replicas'
/// service counters.
struct ClientSummary : client::ClientStats, smr::ClientServiceStats {
  std::uint64_t clients = 0;  // configured client count
  std::uint64_t p50_us = 0;   // percentiles of the clients' latencies_us
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;

  /// Folds every client in, merging their latencies into one distribution
  /// before the percentiles are cut.
  void fold(const std::vector<const client::ClientStats*>& all);
};

/// Unified counters, comparable across backends.  The core message
/// counters are protocol-level on every substrate (counted at the
/// Context::send boundary and at actor dispatch), so a scenario's message
/// complexity can be diffed sim-vs-threads-vs-tcp field by field.
///
/// The witness replica, whose kWitness tallies stand for the run, is the
/// lowest-id correct replica with no scheduled crash: it ran the whole
/// run, while a restarted replica counts only its second life.  When every
/// correct replica was killed, it is the first correct one.
struct RunStats {
  sim::Stats net;
  /// Virtual end time (sim) — 0 on the wall-clock backends.
  SimTime virtual_time = 0;
  /// Wall-clock run duration in µs (measured on every backend): the whole
  /// event loop on kSim; on kThreads/kTcp transport::Cluster::elapsed(),
  /// from the epoch until every node thread joined — opening and closing
  /// the TCP wire is outside it.
  std::uint64_t wall_us = 0;
  /// kTcp only: wire, fault and recovery counters over all links.
  transport::TcpLinkStats link;
  /// Verification cost (scenario runners fill it in; the substrates
  /// themselves have no crypto visibility).
  VerifySummary verify;
  PipelineSummary pipeline;
  IngestSummary ingest;
  ClientSummary client;
};

/// One-line JSON object for benchmark emission: every declared counter of
/// `stats` once, plus the run-level keys (stable across backends;
/// TCP-only fields are 0 elsewhere).
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
  /// Messages already handed to the channels may still reach peers.  For
  /// a progress kill (`spec.after_commit`) nothing is timed: the halt
  /// happens when the scenario calls kill() from the victim's callback.
  virtual void crash(const faults::CrashSpec& spec) = 0;

  /// Schedules the restart half of a kill/restart schedule: `spec` must
  /// have been passed to crash() already and carry `restart_at`; at that
  /// instant (for a progress kill, that long after the kill fired)
  /// `factory()` builds a FRESH actor that takes over the process (same
  /// id, same rng stream, empty timers; outage-era deliveries are
  /// discarded).  One-shot on every backend: a restart still pending when
  /// every other process has stopped, or one that would fire after the
  /// substrate began stopping, is abandoned, never a hang.  A restarted
  /// process is expected to stop like any correct one, so it is NOT
  /// excluded from the unstopped audit.
  virtual void restart(const faults::CrashSpec& spec,
                       std::function<std::unique_ptr<sim::Actor>()> factory)
      = 0;

  /// The progress-kill hook: halts `who`, whose spec passed to crash()
  /// carries `after_commit`, at once, and returns the instant in the
  /// substrate's clock.  Call it only from `who`'s own callback; whatever
  /// that callback sends afterwards is suppressed.
  virtual SimTime kill(ProcessId who) = 0;

  /// Optional observer invoked on every delivery, before the receiving
  /// actor's on_message.  On the threaded backends calls are serialized by
  /// the runtime; `Delivery::payload` is valid only for the call.
  virtual void set_delivery_tap(
      std::function<void(const sim::Delivery&)> tap) = 0;

  /// Runs to completion (or a limit) and reports the unified outcome.
  /// `done` is the caller's end condition: once it holds, the run ends as
  /// kAllStopped, and a restart still pending then is abandoned.  The
  /// simulator checks it after every event; the wall-clock backends check
  /// it in their 2 ms all-stopped poll, on the calling thread, so it may
  /// read only state that is safe to read while the nodes run.  Without
  /// one, a run ends when every process stopped (or, on the simulator,
  /// when no event is left).
  virtual RunResult run(std::function<bool()> done = nullptr) = 0;
};

std::unique_ptr<Substrate> make_substrate(SubstrateConfig config);

}  // namespace modubft::runtime
