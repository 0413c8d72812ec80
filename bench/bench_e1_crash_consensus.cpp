// E1 — Hurfin–Raynal ◇S consensus under crashes (paper Figure 2).
//
// Reproduces the crash-model protocol's behaviour envelope: decision
// latency, rounds and message cost as functions of group size, crash count
// and failure-detector quality.  Expected shape: failure-free runs decide
// in round 1 with Θ(n²) messages; each early-coordinator crash adds
// roughly one round plus the detection lag; false suspicions inflate
// rounds but never break safety.
//
// Counters: rounds (max decision round), msgs, kbytes, sim_ms (last
// decision time in simulated milliseconds).
#include <benchmark/benchmark.h>

#include "faults/scenario.hpp"

namespace {

using namespace modubft;

void run_case(benchmark::State& state, std::uint32_t n, std::uint32_t crashes,
              double mistake_prob) {
  double rounds = 0, msgs = 0, kbytes = 0, sim_ms = 0;
  std::uint64_t seed = 1;
  std::uint64_t ok = 0, total = 0;

  for (auto _ : state) {
    faults::CrashScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = seed++;
    cfg.protocol = faults::CrashProtocol::kHurfinRaynal;
    cfg.crash_times.assign(n, std::nullopt);
    for (std::uint32_t i = 0; i < crashes; ++i) {
      cfg.crash_times[i] = SimTime{i * 20'000};  // early coordinators die
    }
    cfg.oracle.stabilization_time = mistake_prob > 0 ? 300'000 : 0;
    cfg.oracle.false_suspicion_prob = mistake_prob;

    faults::CrashScenarioResult r = faults::run_crash_scenario(cfg);
    total += 1;
    ok += r.agreement && r.termination && r.validity;
    rounds += r.max_decision_round.value;
    msgs += static_cast<double>(r.run_stats.net.messages_sent);
    kbytes += static_cast<double>(r.run_stats.net.bytes_sent) / 1024.0;
    sim_ms += static_cast<double>(r.last_decision_time) / 1000.0;
  }

  const double k = static_cast<double>(total);
  state.counters["rounds"] = rounds / k;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["sim_ms"] = sim_ms / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(ok) / k;
}

void register_all() {
  for (std::uint32_t n : {3u, 5u, 7u, 9u, 13u}) {
    const std::uint32_t fmax = (n - 1) / 2;
    for (std::uint32_t crashes : {0u, 1u, fmax}) {
      if (crashes > fmax) continue;
      for (double mistakes : {0.0, 0.2}) {
        std::string name = "E1/HR/n:" + std::to_string(n) +
                           "/crashes:" + std::to_string(crashes) +
                           "/fd_mistakes:" + std::to_string(int(mistakes * 100)) +
                           "pct";
        benchmark::RegisterBenchmark(
            name.c_str(), [n, crashes, mistakes](benchmark::State& st) {
              run_case(st, n, crashes, mistakes);
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
