// Interactive Consistency — the 1980 synchronous ancestor of the paper's
// Vector Consensus (footnote 6 / reference [11]).
//
// Runs the Pease–Shostak–Lamport EIG oral-messages algorithm with one
// equivocating Byzantine process, then the paper's asynchronous
// transformed protocol on the same task, and prints both vectors and
// costs side by side.
//
//   ./examples/interactive_consistency
#include <iostream>
#include <map>

#include "faults/scenario.hpp"
#include "sync/eig_ic.hpp"

int main() {
  using namespace modubft;
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kF = 1;

  // ---- synchronous EIG ----
  std::map<std::uint32_t, std::vector<sync::Value>> vectors;
  std::vector<std::unique_ptr<sync::SyncProcess>> procs;
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (i == 1) {
      procs.push_back(std::make_unique<sync::EigLiar>(kN, kF, ProcessId{i}));
    } else {
      procs.push_back(std::make_unique<sync::EigProcess>(
          kN, kF, ProcessId{i}, 1000 + i,
          [&vectors](ProcessId who, const std::vector<sync::Value>& v) {
            vectors.emplace(who.value, v);
          }));
    }
  }
  sync::SyncStats stats =
      sync::run_lockstep_rounds(procs, sync::EigProcess::rounds_for(kF));

  std::cout << "Interactive Consistency (EIG, synchronous, f+1 = "
            << sync::EigProcess::rounds_for(kF)
            << " rounds), p2 equivocates:\n";
  for (auto& [i, v] : vectors) {
    std::cout << "  p" << (i + 1) << " vector = [";
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (j) std::cout << ", ";
      std::cout << v[j];
    }
    std::cout << "]\n";
  }
  std::cout << "  cost: " << stats.messages << " messages, " << stats.bytes
            << " bytes\n\n";

  // ---- asynchronous transformed protocol, same task ----
  faults::BftScenarioConfig cfg;
  cfg.n = kN;
  cfg.f = kF;
  faults::FaultSpec liar;
  liar.who = ProcessId{1};
  liar.behavior = faults::Behavior::kLieInit;
  cfg.faults = {liar};
  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);

  std::cout << "Vector Consensus (transformed protocol, asynchronous), "
               "p2 lies about its value:\n";
  for (auto& [i, d] : r.decisions) {
    std::cout << "  p" << (i + 1) << " vector = [";
    for (std::size_t j = 0; j < d.entries.size(); ++j) {
      if (j) std::cout << ", ";
      if (d.entries[j].has_value()) std::cout << *d.entries[j];
      else std::cout << "null";
    }
    std::cout << "]\n";
  }
  std::cout << "  cost: " << r.run_stats.net.messages_sent << " messages, "
            << r.run_stats.net.bytes_sent << " bytes\n\n";

  const bool ok = !vectors.empty() && r.agreement && r.termination &&
                  r.vector_validity;
  std::cout << "Both systems agree internally; the async protocol needs no "
               "synchrony,\npaying in signatures/certificates what EIG pays "
               "in rounds and fan-out.\n";
  return ok ? 0 : 1;
}
