#include "fd/oracle_fd.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace modubft::fd {

OracleDetector::OracleDetector(std::vector<std::optional<SimTime>> crash_times,
                               OracleConfig config)
    : crash_times_(std::move(crash_times)), config_(config) {
  MODUBFT_EXPECTS(config_.mistake_window > 0);
}

bool OracleDetector::suspects(ProcessId q, SimTime now) {
  if (q.value >= crash_times_.size()) return false;

  const std::optional<SimTime>& crash = crash_times_[q.value];
  if (crash.has_value() && now >= *crash + config_.detection_lag) {
    return true;  // completeness
  }

  // Pre-stabilization mistakes: a deterministic pseudo-random function of
  // (seed, process, window index) so repeated queries in one window agree.
  if (now < config_.stabilization_time && config_.false_suspicion_prob > 0) {
    const std::uint64_t window = now / config_.mistake_window;
    Rng r(config_.seed ^ (static_cast<std::uint64_t>(q.value) << 32) ^
          (window * 0x9e3779b97f4a7c15ULL));
    return r.next_bool(config_.false_suspicion_prob);
  }
  return false;
}

}  // namespace modubft::fd
