// E9b — tightness of F ≤ min(⌊(n−1)/2⌋, C) (paper footnote 2).
//
// Runs the dual-quorum equivocation attack (faults/split_brain.hpp) with
// n = 7 under two configurations and reports the Agreement-violation rate:
//   * F = 2 (the paper's bound): expected violation rate exactly 0 %;
//   * F = 3 (certification bound overridden): expected violation rate
//     strictly positive — two size-4 quorums intersect only in the
//     Byzantine coordinator, so whenever a half assembles its quorum
//     before the cross-relays trigger change-mind, the split sticks
//     (measured ~20-30 %, a race between quorum formation and conflict
//     evidence; any non-zero rate is an Agreement violation).
// This is the necessity direction of the resilience bound: the
// reproduction shows the formula is not conservative.
#include <benchmark/benchmark.h>

#include <map>

#include "bft/bft_consensus.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/split_brain.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace modubft;

void run_case(benchmark::State& state, std::uint32_t f) {
  constexpr std::uint32_t kN = 7;
  std::uint64_t seed = 1;
  std::uint64_t violations = 0, undecided = 0, total = 0;

  for (auto _ : state) {
    crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, seed);
    sim::SimConfig sim_cfg;
    sim_cfg.n = kN;
    sim_cfg.seed = seed++;
    sim::Simulation world(sim_cfg);

    bft::BftConfig proto;
    proto.n = kN;
    proto.f = f;
    proto.certification_bound = f;  // the override under test

    std::map<std::uint32_t, bft::VectorDecision> decisions;
    world.set_actor(ProcessId{0},
                    std::make_unique<faults::SplitBrainCoordinator>(
                        kN, keys.signers[0].get(), kN - f, 3));
    for (std::uint32_t i = 1; i < kN; ++i) {
      world.set_actor(
          ProcessId{i},
          std::make_unique<bft::BftProcess>(
              proto, 1000 + i, keys.signers[i].get(),
              std::make_shared<crypto::CachingVerifier>(keys.verifier),
              [&decisions, i](ProcessId, const bft::VectorDecision& d) {
                decisions.emplace(i, d);
              }));
    }
    world.run();

    total += 1;
    if (decisions.size() < kN - 1) {
      undecided += 1;
    } else {
      const bft::VectorValue& ref = decisions.begin()->second.entries;
      for (auto& [i, d] : decisions) {
        if (d.entries != ref) {
          violations += 1;
          break;
        }
      }
    }
  }

  const double k = static_cast<double>(total);
  state.counters["agreement_violation_pct"] =
      100.0 * static_cast<double>(violations) / k;
  state.counters["nontermination_pct"] =
      100.0 * static_cast<double>(undecided) / k;
}

void register_all() {
  benchmark::RegisterBenchmark(
      "E9b/split_brain/n:7/F:2_within_bound",
      [](benchmark::State& st) { run_case(st, 2); });
  benchmark::RegisterBenchmark(
      "E9b/split_brain/n:7/F:3_beyond_certification_bound",
      [](benchmark::State& st) { run_case(st, 3); });
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
