// Run counters: the one place each counter is declared.
//
// A component that counts something for a run (the simulator, the TCP
// wire, the verify cache and pool, the replica, the client) keeps its
// counters as plain std::uint64_t members and increments them directly.
// Right below the members, the struct lists every counter once in a
// static `kCounters` table: its key in the run's JSON, the member, and
// how a run combines the values of several processes.  runtime::to_json
// and the scenario runners' post-run summaries walk these tables and
// never name a counter, so adding one is an edit to the component's
// header: a member and its table row.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace modubft::metrics {

/// How a run combines one counter across the processes that report it.
/// Unscoped, so a table row reads `metrics::kSum`.
enum Merge : std::uint8_t {
  kSum,      ///< summed over the correct processes
  kMax,      ///< the largest value any correct process reports
  kWitness,  ///< the witness replica's value: a tally every correct
             ///< replica reaches alike, taken from one that ran the whole
             ///< run (runtime::RunStats explains the choice)
};

/// One declared counter of the component struct S.
template <class S>
struct Counter {
  const char* key;  ///< its key in runtime::to_json
  std::uint64_t S::*field;
  Merge merge;
};

/// Folds one process's counters `part` into `run` (the run-level struct,
/// which derives from S), each by its declared rule.  `witness` marks
/// the witness replica.
template <class S>
void merge(std::type_identity_t<S>& run, const S& part, bool witness = false) {
  for (const Counter<S>& c : S::kCounters) {
    std::uint64_t& into = run.*c.field;
    const std::uint64_t value = part.*c.field;
    switch (c.merge) {
      case kSum: into += value; break;
      case kMax: into = std::max(into, value); break;
      case kWitness:
        if (witness) into = value;
        break;
    }
  }
}

}  // namespace modubft::metrics
