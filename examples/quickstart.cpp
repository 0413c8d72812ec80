// Quickstart: crash-tolerant consensus with the Hurfin–Raynal protocol
// (paper Figure 2) on the deterministic simulator.
//
// Five processes propose values; the round-1 coordinator crashes mid-run;
// the survivors detect it through the ◇S failure detector and agree in a
// later round.
//
//   ./examples/quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "faults/scenario.hpp"

int main(int argc, char** argv) {
  using namespace modubft;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  faults::CrashScenarioConfig cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.protocol = faults::CrashProtocol::kHurfinRaynal;
  // p1 (round-1 coordinator) crashes at startup, before it can propose:
  // the survivors must suspect it (◇S) and finish under p2's coordination.
  cfg.crash_times = {SimTime{0}, std::nullopt, std::nullopt, std::nullopt,
                     std::nullopt};
  cfg.proposals = {100, 200, 300, 400, 500};

  std::cout << "Running Hurfin-Raynal consensus: n=5, p1 crashes at start, "
               "seed="
            << seed << "\n\n";

  faults::CrashScenarioResult r = faults::run_crash_scenario(cfg);

  for (const auto& [i, d] : r.decisions) {
    std::cout << "  p" << (i + 1) << " decided " << d.value << " in round "
              << d.round.value << " at t=" << d.time / 1000.0 << "ms\n";
  }
  std::cout << "\n  agreement:   " << (r.agreement ? "yes" : "NO") << "\n"
            << "  termination: " << (r.termination ? "yes" : "NO") << "\n"
            << "  validity:    " << (r.validity ? "yes" : "NO") << "\n"
            << "  messages:    " << r.run_stats.net.messages_sent << " ("
            << r.run_stats.net.bytes_sent << " bytes)\n";
  return r.agreement && r.termination && r.validity ? 0 : 1;
}
