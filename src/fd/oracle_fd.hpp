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
// exactly what E1's mistake-rate sweep needs.  A kill that fires on the
// victim's progress has no instant before the run; the oracle reads it
// from a shared KillInstants once the kill fired.
#pragma once

#include <atomic>
#include <memory>
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

/// The instants of the kills that fire on the victim's progress
/// (faults::CrashSpec::after_commit), learned while the run goes.  The
/// kill hook records each on the victim's thread; every replica's oracle
/// reads them, on any thread.
class KillInstants {
 public:
  explicit KillInstants(std::uint32_t n);

  /// Records that `who` was killed at `at`; the first record wins.
  void record(ProcessId who, SimTime at);
  /// The recorded kill instant of `who`, if its kill fired.
  std::optional<SimTime> at(ProcessId who) const;

 private:
  std::vector<std::atomic<SimTime>> at_;  // kNotYet until recorded
};

class OracleDetector final : public CrashDetector {
 public:
  /// `crash_times[i]` is the crash instant of p_{i+1}, or nullopt if the
  /// process never crashes at a set time.  `fired`, when given, holds the
  /// instants of progress kills: such a process is suspected from its
  /// kill plus `detection_lag`, as a timed one is.
  OracleDetector(std::vector<std::optional<SimTime>> crash_times,
                 OracleConfig config,
                 std::shared_ptr<const KillInstants> fired = nullptr);

  bool suspects(ProcessId q, SimTime now) override;

 private:
  std::vector<std::optional<SimTime>> crash_times_;
  OracleConfig config_;
  std::shared_ptr<const KillInstants> fired_;
};

}  // namespace modubft::fd
