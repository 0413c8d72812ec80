// E3 — the cost of the crash→arbitrary transformation.
//
// Runs the *same* workload (group size, failure pattern, network, seed)
// under the original crash-model protocol and under its transformed
// Byzantine version, and reports the overhead side by side.  Expected
// shape: the transformed protocol pays
//   * a small constant message-count factor (INIT phase + relayed
//     CURRENTs),
//   * a large byte factor that grows with n (certificates carry n−F signed
//     messages; this is the dominant cost the paper's certificate design
//     implies),
//   * a similar round count (the round structure is preserved by the
//     transformation — that is the methodology's point).
#include <benchmark/benchmark.h>

#include <set>

#include "faults/scenario.hpp"

namespace {

using namespace modubft;

struct Workload {
  const char* name;
  bool crash_coordinator;
};

void run_crash(benchmark::State& state, std::uint32_t n, bool crash_coord) {
  double rounds = 0, msgs = 0, kbytes = 0, sim_ms = 0;
  std::uint64_t seed = 1, total = 0;
  for (auto _ : state) {
    faults::CrashScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = seed++;
    cfg.protocol = faults::CrashProtocol::kHurfinRaynal;
    cfg.crash_times.assign(n, std::nullopt);
    if (crash_coord) cfg.crash_times[0] = SimTime{0};
    faults::CrashScenarioResult r = faults::run_crash_scenario(cfg);
    total += 1;
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
}

void run_bft(benchmark::State& state, std::uint32_t n, bool crash_coord) {
  double rounds = 0, msgs = 0, kbytes = 0, sim_ms = 0, max_kb = 0;
  std::uint64_t seed = 1, total = 0;
  for (auto _ : state) {
    faults::BftScenarioConfig cfg;
    cfg.n = n;
    cfg.f = bft::max_tolerated_faults(n);
    cfg.seed = seed++;
    if (crash_coord) {
      faults::FaultSpec spec;
      spec.who = ProcessId{0};
      spec.behavior = faults::Behavior::kCrash;
      spec.at = 0;
      cfg.faults.push_back(spec);
    }
    faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
    total += 1;
    rounds += r.max_decision_round.value;
    msgs += static_cast<double>(r.run_stats.net.messages_sent);
    kbytes += static_cast<double>(r.run_stats.net.bytes_sent) / 1024.0;
    sim_ms += static_cast<double>(r.last_decision_time) / 1000.0;
    max_kb += static_cast<double>(r.max_message_bytes) / 1024.0;
  }
  const double k = static_cast<double>(total);
  state.counters["rounds"] = rounds / k;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["sim_ms"] = sim_ms / k;
  state.counters["max_msg_kb"] = max_kb / k;
}

void register_all() {
  const Workload workloads[] = {{"clean", false}, {"coord_crash", true}};
  for (std::uint32_t n : {4u, 7u, 10u, 13u}) {
    for (const Workload& w : workloads) {
      std::string crash_name = "E3/crash_HR/n:" + std::to_string(n) +
                               "/workload:" + w.name;
      std::string bft_name =
          "E3/transformed_BFT/n:" + std::to_string(n) + "/workload:" + w.name;
      const bool cc = w.crash_coordinator;
      benchmark::RegisterBenchmark(
          crash_name.c_str(),
          [n, cc](benchmark::State& st) { run_crash(st, n, cc); });
      benchmark::RegisterBenchmark(
          bft_name.c_str(),
          [n, cc](benchmark::State& st) { run_bft(st, n, cc); });
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
