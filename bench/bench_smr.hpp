// SMR rate and rep-spread helpers shared by the benchmark binaries.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"

namespace modubft::benchsmr {

/// Commands committed per second of the run.  Rate basis: virtual
/// microseconds on the simulator (deterministic), wall-clock microseconds
/// on the threaded and TCP substrates.
inline double commits_per_sec(runtime::Backend substrate,
                              const faults::SmrScenarioResult& r) {
  const double us = substrate == runtime::Backend::kSim
                        ? static_cast<double>(r.run_stats.virtual_time)
                        : static_cast<double>(r.run_stats.wall_us);
  if (us <= 0) return 0;
  return static_cast<double>(r.run_stats.pipeline.commands_committed) * 1e6 /
         us;
}

/// The time base of a substrate's rows, as the BENCH files name it.
inline const char* time_basis(runtime::Backend substrate) {
  return substrate == runtime::Backend::kSim ? "virtual_time_us" : "wall_us";
}

/// Reps per row: the simulator is deterministic, so one suffices there.
inline int reps_on(runtime::Backend substrate, int reps) {
  return substrate == runtime::Backend::kSim ? 1 : reps;
}

/// Median and quartiles of a row's per-rep rates, each the linear
/// interpolation between the two nearest order statistics.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double iqr() const { return q3 - q1; }
};

inline Spread spread(std::vector<double> reps) {
  if (reps.empty()) return {};
  std::sort(reps.begin(), reps.end());
  const auto at = [&reps](double q) {
    const double pos = q * static_cast<double>(reps.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, reps.size() - 1);
    return reps[lo] + (pos - static_cast<double>(lo)) * (reps[hi] - reps[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// A row's per-rep rates as a JSON array, in run order.
inline std::string reps_json(const std::vector<double>& reps) {
  benchjson::JsonArray out;
  for (double v : reps) {
    std::ostringstream os;
    os << v;
    out.add(os.str());
  }
  return out.str();
}

}  // namespace modubft::benchsmr
