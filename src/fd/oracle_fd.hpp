// Oracle failure detector for controlled experiments.
//
// The oracle knows the crash schedule (tests and benchmarks inject it) and
// synthesizes a ◇S-compliant suspicion pattern:
//   * completeness — a crashed process is suspected `detection_lag` after
//     its crash, by every querier, forever;
//   * accuracy     — before `stabilization_time` the oracle may falsely
//     suspect correct processes (deterministic pseudo-random per process ×
//     time window, so runs replay); from `stabilization_time` on, no
//     correct process is ever suspected (eventually-perfect ⊂ ◇S).
// This makes failure-detector *quality* an experiment parameter, which is
// exactly what the mistake-rate sweeps of E1 and E7 need.  Only the
// one-shot crash scenarios (faults::run_crash_scenario) and tests that
// drive a consensus actor directly use it: no deployment knows the crash
// schedule, so the SMR crash back-end runs a ◇M detector fed by its own
// traffic instead (fd/muteness_fd.hpp).
#pragma once

#include <optional>
#include <vector>

#include "fd/failure_detector.hpp"

namespace modubft::fd {

struct OracleConfig {
  /// Delay between a crash and its first suspicion.
  SimTime detection_lag = 30'000;

  /// Before this instant the oracle may wrongly suspect correct processes.
  SimTime stabilization_time = 0;

  /// Probability a given (correct process, window) pair is wrongly
  /// suspected before stabilization.
  double false_suspicion_prob = 0.0;

  /// Width of the mistake windows.
  SimTime mistake_window = 20'000;

  /// Seed of the deterministic mistake pattern.
  std::uint64_t seed = 1;
};

class OracleDetector final : public CrashDetector {
 public:
  /// `crash_times[i]` is the crash instant of p_{i+1}, or nullopt if the
  /// process never crashes.
  OracleDetector(std::vector<std::optional<SimTime>> crash_times,
                 OracleConfig config);

  bool suspects(ProcessId q, SimTime now) override;

 private:
  std::vector<std::optional<SimTime>> crash_times_;
  OracleConfig config_;
};

}  // namespace modubft::fd
