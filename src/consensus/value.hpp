// Consensus problem types shared by the crash-model and BFT protocols.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/ids.hpp"

namespace modubft::consensus {

/// A proposable value.  Protocols treat it as opaque; 64 bits is enough to
/// carry a command id / digest in the replicated-state-machine layer.
using Value = std::uint64_t;

/// Period of the crash protocols' failure-detector poll timer: suspicion
/// is time-driven, so the ◇S guard is also evaluated this often.
inline constexpr SimTime kSuspicionPollPeriod = 10'000;

/// Outcome of a consensus instance at one process.
struct Decision {
  Value value = 0;
  Round round;     // the round in which this process decided
  SimTime time = 0;  // when it decided
};

/// Invoked exactly once per deciding process.
using DecideFn = std::function<void(ProcessId, const Decision&)>;

/// Vector-consensus decision (paper §5.1, Vector Validity).  entries[j] is
/// the value proposed by p_{j+1}, or nullopt ("null" in the paper) if that
/// process's proposal was not seen.
struct VectorDecision {
  std::vector<std::optional<Value>> entries;
  Round round;
  SimTime time = 0;
};

using VectorDecideFn = std::function<void(ProcessId, const VectorDecision&)>;

}  // namespace modubft::consensus
