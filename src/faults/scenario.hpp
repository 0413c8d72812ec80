// One-call scenario runners shared by tests, benchmarks and examples.
//
// A scenario = group size + fault assignment + network model + seed + an
// execution substrate.  The runner wires up the whole stack (keys,
// runtime, actors, detectors), runs to completion, and evaluates the
// paper's correctness properties over the outcome so that callers assert
// on booleans instead of re-deriving the checks.
//
// Every runner is substrate-generic (runtime::Backend): the same scenario
// executes on the deterministic simulator, the threaded in-memory cluster,
// or the TCP loopback cluster — see docs/RUNTIME.md for the contract.  The
// implementations live in src/runtime/scenario.cpp (the threaded backends
// sit above faults/ in the link order).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bft/bft_consensus.hpp"
#include "client/client.hpp"
#include "consensus/value.hpp"
#include "faults/fault_spec.hpp"
#include "fd/oracle_fd.hpp"
#include "runtime/substrate.hpp"
#include "sim/simulation.hpp"
#include "smr/replica.hpp"

namespace modubft::faults {

enum class Scheme { kHmac, kRsa64 };

/// The settings every scenario shares: where it runs and for how long.
struct ScenarioSettings {
  std::uint64_t seed = 1;
  /// Execution backend: deterministic simulator (default), threaded
  /// in-memory cluster, or TCP loopback cluster.
  runtime::Backend substrate = runtime::Backend::kSim;
  sim::LatencyModel latency = sim::calm_network();
  /// Simulated-time limit (kSim).
  SimTime max_time = 120'000'000;
  /// Wall-clock budget for the threaded/TCP substrates.
  std::chrono::milliseconds budget{20'000};
};

/// The outcome fields every scenario result shares.
struct ScenarioOutcome {
  runtime::RunOutcome outcome = runtime::RunOutcome::kQuiescent;
  /// True iff the run ended without hitting a time/event/budget limit.
  bool clean = false;
  /// Named stragglers when a limit hit (see runtime::RunResult).
  std::vector<ProcessId> unstopped;
  /// Indices of the processes the evaluation counts as correct.
  std::set<std::uint32_t> correct;
  /// Unified cross-substrate counters (runtime::RunStats).
  runtime::RunStats run_stats;
};

// --------------------------------------------------------------------- BFT

struct BftScenarioConfig : ScenarioSettings {
  std::uint32_t n = 4;
  std::uint32_t f = 1;  // declared resilience (quorum = n − f)
  std::vector<FaultSpec> faults;
  Scheme scheme = Scheme::kHmac;
  bool prune = true;
  /// Optional certification-bound override (see bft::BftConfig).
  std::optional<std::uint32_t> certification_bound;
  /// false = audit mode: processes keep their detection modules running
  /// after deciding, guaranteeing that every delivered misbehaviour ends up
  /// in the fault records.
  bool stop_on_decide = true;
  /// ◇M timeouts.  When left at the defaults on a wall-clock substrate the
  /// runner widens them (OS scheduling noise would otherwise trip the
  /// simulator-scale timeout); an explicit non-default value is honoured
  /// everywhere.
  fd::MutenessConfig muteness{};
  /// kTcp: link faults injected below the framing layer.
  std::vector<LinkFaultSpec> link_faults;
  /// Proposal of p_{i+1}; defaults to 1000 + i when empty.
  std::vector<consensus::Value> proposals;
  /// Optional observer for every delivery (tracing, safety auditing).
  std::function<void(const sim::Delivery&)> delivery_tap;
  /// Optional decorator applied to every installed actor after fault
  /// wrapping — the adversary layer splices wire-level mutators under
  /// selected processes this way.  A wrapper that makes a process
  /// misbehave — or replaces it outright, discarding the BftProcess whose
  /// internals the evaluation reads — must list it in `assume_faulty`.
  std::function<std::unique_ptr<sim::Actor>(ProcessId,
                                            std::unique_ptr<sim::Actor>)>
      wrap_actor;
  /// Processes the property evaluation must count as faulty although they
  /// carry no FaultSpec (e.g. wire-fuzzed senders).
  std::set<std::uint32_t> assume_faulty;
};

/// `correct`: the processes that were given no fault.  Each process
/// verifies through its own crypto::CachingVerifier; run_stats.verify sums
/// the correct processes' caches.
struct BftScenarioResult : ScenarioOutcome {
  /// Decisions of correct processes, keyed by process index.
  std::map<std::uint32_t, bft::VectorDecision> decisions;

  // --- paper properties, evaluated over the correct processes ---
  bool termination = false;      // every correct process decided
  bool agreement = false;        // all decided vectors equal
  bool vector_validity = false;  // per-entry rule + the ρ = n−2F floor
  std::uint32_t min_correct_entries = 0;  // worst-case certified entries
  bool detectors_reliable = false;  // faulty_i ⊆ actually-faulty ∀ correct i

  /// Union of fault records accumulated by correct processes.
  std::vector<bft::FaultRecord> records;

  /// Which processes the correct ones declared faulty.
  std::set<std::uint32_t> declared_faulty;

  Round max_decision_round;
  SimTime last_decision_time = 0;
  std::uint64_t max_message_bytes = 0;
  std::uint64_t protocol_bytes = 0;  // sum of per-process send bytes
};

BftScenarioResult run_bft_scenario(const BftScenarioConfig& config);

// ------------------------------------------------------------------- crash

enum class CrashProtocol { kHurfinRaynal, kChandraToueg };

struct CrashScenarioConfig : ScenarioSettings {
  std::uint32_t n = 5;
  CrashProtocol protocol = CrashProtocol::kHurfinRaynal;
  /// crash_times[i]: when p_{i+1} crashes (nullopt = correct).
  std::vector<std::optional<SimTime>> crash_times;
  fd::OracleConfig oracle{};
  std::vector<consensus::Value> proposals;
};

struct CrashScenarioResult : ScenarioOutcome {
  std::map<std::uint32_t, consensus::Decision> decisions;
  bool termination = false;
  bool agreement = false;
  bool validity = false;  // decided value was proposed by someone
  Round max_decision_round;
  SimTime last_decision_time = 0;
};

CrashScenarioResult run_crash_scenario(const CrashScenarioConfig& config);

// ---------------------------------------------------------------- lockstep

struct LockstepScenarioConfig : ScenarioSettings {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t rounds = 5;
  /// Processes crashed mid-barrier (the barrier tolerates up to f).
  std::vector<CrashSpec> crashes;
};

struct LockstepScenarioResult : ScenarioOutcome {
  /// Final round reached per finished process.
  std::map<std::uint32_t, Round> finished;
  bool all_correct_finished = false;
  /// No correct process convicted another correct process.
  bool no_false_accusations = true;
  /// Union of fault records accumulated by correct processes.
  std::vector<bft::FaultRecord> records;
};

LockstepScenarioResult run_lockstep_scenario(
    const LockstepScenarioConfig& config);

// --------------------------------------------------------------------- SMR

/// Live client load for an SMR scenario (ISSUE 9): `count` client actors
/// on process ids [n, n + count), each driving a deterministic script of
/// `ops_per_client` operations through the REQUEST/REPLY path instead of
/// the preloaded workload.  Scripts are a pure function of (client index,
/// op index) over 8 distinct keys, so every run of the same config
/// submits the same commands.
struct ClientLoadConfig {
  std::uint32_t count = 2;
  std::uint32_t ops_per_client = 8;
  /// Read by nothing, like `interval`: every client is a closed loop
  /// with `max_outstanding` ops in flight.  Both stay only because
  /// perfbench still sets them; the next benchmark change deletes them
  /// together with that writer.
  bool open_loop = false;
  SimTime interval = 1'000;
  /// Ops each client keeps in flight: a client refills to this count on
  /// start and on every certification.  The replicas' eligibility window
  /// (smr::ClientServiceConfig::seq_window), which also sizes their reply
  /// cache, is the same count, so it is at most
  /// smr::StateLimits{}.max_cached_replies.
  std::uint32_t max_outstanding = 1;
  /// Replica-side admission bound (smr::ClientServiceConfig::max_pending).
  std::uint32_t max_pending = 64;
  /// Client retry-backoff base (µs); unset = substrate default
  /// (sim 40 ms, threads 200 ms, tcp 400 ms).
  std::optional<SimTime> retry_base;
  /// Negative-control switch: clients accept the first reply without
  /// certification (adversary harness only — forged replies must land).
  bool trust_first_reply = false;
  /// Client authentication: sign request bodies and SEQ_BOUNDs and
  /// verify them replica-side.  Unset = on exactly when the backend is
  /// Byzantine (forgery in the fault model), off for crash backends.
  /// Explicit false under Byzantine is the body-forgery negative control.
  std::optional<bool> authenticate;
};

struct SmrScenarioConfig : ScenarioSettings {
  std::uint32_t n = 4;
  std::uint32_t f = 1;  // Byzantine backend resilience
  /// Read by nothing: no log has a fixed length.  Kept only because
  /// perfbench still sets it; the next benchmark change deletes it
  /// together with that writer.
  std::uint64_t slots = 5;
  smr::Backend backend = smr::Backend::kCrashHurfinRaynal;
  /// Replicas halted mid-run, on either back-end.  Only the substrate and
  /// the evaluation read this schedule: no replica is told of it (the
  /// crash back-end's ◇M finds a crash in the replica's own traffic).
  std::vector<CrashSpec> crashes;
  /// Preloaded commands, handed to every replica at construction; defaults
  /// to the canonical 5-command KV workload.  The run ends once every
  /// correct replica applied all of them.  Must stay empty with `clients`
  /// set: the client commit rule commits client command ids only.
  std::vector<smr::Command> workload;
  /// Signature scheme (Byzantine back-end and checkpoint certificates).
  /// kRsa64 puts the run in the verification-dominated regime (E17's
  /// n = 7 and n = 10 rows); kHmac is the cheap default.
  Scheme scheme = Scheme::kHmac;
  /// Pipeline window W (concurrent consensus instances per replica).
  std::uint32_t window = 1;
  /// Batch size B (commands committed per slot).
  std::uint32_t batch = 1;

  // --- checkpointing / recovery (ISSUE 6) ---
  /// Checkpoint every C committed slots (0 = off; wire format identical
  /// to a pre-recovery build).  When on, a CrashSpec carrying
  /// `restart_at` brings the replica back as a FRESH actor that recovers
  /// via certified state transfer; such replicas count as correct and are
  /// expected to end with the quorum's store.
  std::uint64_t checkpoint_interval = 0;
  /// Negative-control switch: recovering replicas install the first
  /// STATE_RESP without verification (adversary harness only).
  bool recovery_trust_unverified = false;
  /// Optional decorator applied to every installed actor (including
  /// restarted lives) — the adversary layer splices wire-level mutators
  /// under selected replicas this way.  A wrapper that makes a replica
  /// misbehave must list it in `assume_faulty`.
  std::function<std::unique_ptr<sim::Actor>(ProcessId,
                                            std::unique_ptr<sim::Actor>)>
      wrap_actor;
  /// Replicas the evaluation must count as faulty although they carry no
  /// CrashSpec (e.g. forged-checkpoint senders).
  std::set<std::uint32_t> assume_faulty;

  // --- client/service layer (ISSUE 9) ---
  /// Attach live clients; every replica gets a client service (see
  /// smr::ClientServiceConfig).  The clients ARE the workload, so
  /// `workload` must be empty.  The run ends once every client finished
  /// its script and every correct replica applied all count ×
  /// ops_per_client commands.
  std::optional<ClientLoadConfig> clients;
  /// kTcp: link faults injected below the framing layer.
  std::vector<LinkFaultSpec> link_faults;
};

struct SmrScenarioResult : ScenarioOutcome {
  /// Slots committed per replica.
  std::map<std::uint32_t, std::uint64_t> committed;
  /// Every correct replica applied every command (a restarted one
  /// counted from its fresh life).
  bool all_committed = false;
  bool stores_agree = false;   // all correct stores byte-identical
  /// Contents of the first correct replica's store.
  std::map<std::string, std::string> store;
  /// Killed replicas that rejoined via verified state transfer — a
  /// certified snapshot install, or a quorum-verified suffix replay from
  /// genesis when no checkpoint had certified before the kill.
  std::set<std::uint32_t> recovered;
  /// Final store of every correct replica (recovery audits compare the
  /// recovered replica against the surviving quorum entry by entry).
  std::map<std::uint32_t, std::map<std::string, std::string>> stores;

  // --- client/service layer (filled only when config.clients is set) ---
  /// True iff some replica with no scheduled crash kept commit_log.
  /// Without one there is no log to audit replies against.
  bool commit_log_kept = false;
  /// Committed commands as applied by the witness replica (the lowest-id
  /// correct replica with no scheduled crash; failing that, the lowest-id
  /// replica with none): command id → (slot, command).  The auditor
  /// checks every client-accepted reply against this map.
  std::map<std::uint64_t, std::pair<std::uint64_t, smr::Command>> commit_log;
  /// Commands the witness replica applied more than once (must be 0 —
  /// the exactly-once audit).
  std::uint64_t commit_log_duplicates = 0;
  /// Per-client stats and accepted replies, keyed by client process id.
  std::map<std::uint32_t, client::ClientStats> client_stats;
  std::map<std::uint32_t, std::vector<client::AcceptedReply>> client_accepted;
  /// Clients whose whole script certified (final SEQ_BOUND broadcast).
  std::set<std::uint32_t> clients_done;
};

SmrScenarioResult run_smr_scenario(const SmrScenarioConfig& config);

/// The canonical 5-command KV workload (put/overwrite/delete mix).
std::vector<smr::Command> sample_workload();

/// A synthetic KV workload of `count` commands: ids 1..count over keys
/// key0..key7 (`key<id % 8>`), every 5th id a delete, the rest puts of
/// `v<id>`.
std::vector<smr::Command> kv_workload(std::uint64_t count);

}  // namespace modubft::faults
