// Unreliable failure-detector interfaces (Chandra–Toueg style).
//
// A crash detector answers "do I currently suspect q to have crashed?".
// Implementations are allowed to make mistakes in both directions as long
// as they satisfy their class's completeness/accuracy properties:
//   * ◇S  — strong completeness (every crashed process is eventually
//            suspected by every correct process) + eventual weak accuracy
//            (eventually some correct process is never suspected).
// The protocol modules only ever *read* suspicions (paper: "p_i can only
// read this set"), so the interface is a pure query.
#pragma once

#include "common/ids.hpp"

namespace modubft::fd {

/// Query interface for crash suspicion (◇S-style detectors).
class CrashDetector {
 public:
  virtual ~CrashDetector() = default;

  /// True iff this module currently suspects `q` at time `now`.
  virtual bool suspects(ProcessId q, SimTime now) = 0;
};

}  // namespace modubft::fd
