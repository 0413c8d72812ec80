// SMR rate helper shared by the SMR benchmark binaries (e17, e18, e19).
#pragma once

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

}  // namespace modubft::benchsmr
