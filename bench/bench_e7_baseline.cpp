// E7 — Hurfin–Raynal vs Chandra–Toueg in the crash model.
//
// HR [8] was published as a "simple and fast" ◇S protocol; the paper
// builds its transformation on it.  This bench reproduces the relationship
// against the classical CT baseline on identical workloads.  Expected
// shape: HR uses broadcast votes (Θ(n²) messages but one communication
// step to decide when the coordinator is correct); CT funnels through the
// coordinator (fewer messages, more steps), so HR wins on failure-free
// latency while CT wins on message count for larger n.
#include <benchmark/benchmark.h>

#include "faults/scenario.hpp"

namespace {

using namespace modubft;

struct Workload {
  const char* name;
  bool crash_coordinator;
  double mistake_prob;
};

void run_case(benchmark::State& state, faults::CrashProtocol protocol,
              std::uint32_t n, const Workload& w) {
  double rounds = 0, msgs = 0, kbytes = 0, sim_ms = 0;
  std::uint64_t ok = 0, total = 0, seed = 1;

  for (auto _ : state) {
    faults::CrashScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = seed++;
    cfg.protocol = protocol;
    cfg.crash_times.assign(n, std::nullopt);
    if (w.crash_coordinator) cfg.crash_times[0] = SimTime{0};
    cfg.oracle.stabilization_time = w.mistake_prob > 0 ? 200'000 : 0;
    cfg.oracle.false_suspicion_prob = w.mistake_prob;

    faults::CrashScenarioResult r = faults::run_crash_scenario(cfg);
    total += 1;
    ok += r.termination && r.agreement && r.validity;
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
  const Workload workloads[] = {
      {"clean", false, 0.0},
      {"coord_crash", true, 0.0},
      {"fd_mistakes", false, 0.2},
  };
  for (std::uint32_t n : {5u, 9u, 13u}) {
    for (const Workload& w : workloads) {
      for (auto [proto, label] :
           {std::pair{faults::CrashProtocol::kHurfinRaynal, "HR"},
            std::pair{faults::CrashProtocol::kChandraToueg, "CT"}}) {
        std::string name = std::string("E7/") + label +
                           "/n:" + std::to_string(n) + "/workload:" + w.name;
        benchmark::RegisterBenchmark(
            name.c_str(), [proto, n, w](benchmark::State& st) {
              run_case(st, proto, n, w);
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
