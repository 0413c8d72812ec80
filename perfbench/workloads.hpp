// The benchmark's workloads and the correctness gate every run passes.
//
// All three run n=4, f=1 with HMAC keys, pipeline W=4 B=2 and a checkpoint
// every 8 slots over the live client request path, with the log sized by
// the docs/CLIENT.md rule (slots = 2 x total ops + 2W).  The op count is
// part of each workload's definition: the replica's per-op cost grows
// with the number of commands it has seen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/scenario.hpp"

namespace perfbench {

class Probe;

struct Workload {
  const char* name;
  modubft::runtime::Backend substrate;
  modubft::smr::Backend backend;
  std::uint32_t clients;
  std::uint32_t ops_per_client;
  std::uint32_t in_flight;  // ops each client keeps outstanding
  /// Kill replica 0 at `kill_at` and restart it at `restart_at`
  /// (substrate clock, µs); 0 = no fault.
  modubft::SimTime kill_at;
  modubft::SimTime restart_at;

  std::uint64_t total_ops() const {
    return static_cast<std::uint64_t>(clients) * ops_per_client;
  }
  /// Log length by the docs/CLIENT.md rule.
  std::uint64_t slots() const;
  bool simulated() const {
    return substrate == modubft::runtime::Backend::kSim;
  }
};

inline constexpr std::uint32_t kReplicas = 4;
inline constexpr std::uint32_t kFaulty = 1;
inline constexpr std::uint32_t kWindow = 4;
inline constexpr std::uint32_t kBatch = 2;
inline constexpr std::uint64_t kCheckpointInterval = 8;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The scenario for one repetition; the probe is installed as wrap_actor.
modubft::faults::SmrScenarioConfig make_config(const Workload& w,
                                               std::uint64_t seed,
                                               Probe& probe);

/// Outcome of the correctness gate over one repetition.
struct Verdict {
  std::uint64_t attempted = 0;  // scripted ops
  std::uint64_t failed = 0;     // scripted ops that did not certify
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
};

/// Every scripted op certified, the correct replicas' stores agree, no
/// command was applied twice, every accepted reply matches the committed
/// log, and a killed-and-restarted replica rejoined.
Verdict check(const Workload& w, const modubft::faults::SmrScenarioResult& r);

}  // namespace perfbench
