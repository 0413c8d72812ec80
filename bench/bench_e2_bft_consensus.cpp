// E2/E9 — the transformed Byzantine vector-consensus protocol (Fig 3).
//
// Sweeps group size, tolerated-fault count F and adversary mix at the
// resilience boundary F = min(⌊(n−1)/2⌋, C).  Expected shape: every
// configuration within the bound terminates with Agreement and Vector
// Validity; the decided vector always carries ≥ n−2F certified entries
// (counter floor_margin = min_correct_entries − (n−2F) must be ≥ 0 —
// the paper's ρ bound, experiment E9).
#include <benchmark/benchmark.h>

#include <set>

#include "faults/scenario.hpp"

namespace {

using namespace modubft;
using faults::Behavior;

struct Mix {
  const char* name;
  std::vector<Behavior> behaviors;  // cycled over the F faulty processes
};

void run_case(benchmark::State& state, std::uint32_t n, std::uint32_t f,
              const Mix& mix) {
  double rounds = 0, msgs = 0, kbytes = 0, sim_ms = 0, margin = 0;
  std::uint64_t ok = 0, total = 0, seed = 1;

  for (auto _ : state) {
    faults::BftScenarioConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.seed = seed++;
    for (std::uint32_t i = 0; i < f && !mix.behaviors.empty(); ++i) {
      faults::FaultSpec spec;
      spec.who = ProcessId{i};
      spec.behavior = mix.behaviors[i % mix.behaviors.size()];
      cfg.faults.push_back(spec);
    }
    faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
    total += 1;
    ok += r.termination && r.agreement && r.vector_validity &&
          r.detectors_reliable;
    rounds += r.max_decision_round.value;
    msgs += static_cast<double>(r.run_stats.net.messages_sent);
    kbytes += static_cast<double>(r.run_stats.net.bytes_sent) / 1024.0;
    sim_ms += static_cast<double>(r.last_decision_time) / 1000.0;
    margin += static_cast<double>(r.min_correct_entries) -
              static_cast<double>(n - 2 * f);
  }

  const double k = static_cast<double>(total);
  state.counters["rounds"] = rounds / k;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["sim_ms"] = sim_ms / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(ok) / k;
  state.counters["floor_margin"] = margin / k;  // E9: must be >= 0
}

void register_all() {
  const Mix mixes[] = {
      {"clean", {}},
      {"mute_coord", {Behavior::kMute}},
      {"corrupt", {Behavior::kCorruptVector}},
      {"mixed", {Behavior::kMute, Behavior::kCorruptVector,
                 Behavior::kBadSignature}},
  };
  for (std::uint32_t n : {4u, 7u, 10u}) {
    const std::uint32_t fmax = bft::max_tolerated_faults(n);
    for (std::uint32_t f : std::set<std::uint32_t>{1u, fmax}) {
      if (f > fmax) continue;
      for (const Mix& mix : mixes) {
        std::string name = "E2/BFT/n:" + std::to_string(n) +
                           "/F:" + std::to_string(f) + "/mix:" + mix.name;
        benchmark::RegisterBenchmark(name.c_str(),
                                     [n, f, mix](benchmark::State& st) {
                                       run_case(st, n, f, mix);
                                     });
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
