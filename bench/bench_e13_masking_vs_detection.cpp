// E13 — masking (footnote 1) vs detection (the paper's methodology).
//
// Paper footnote 1 dismisses prior asynchronous approaches because they
// "provide only a masking of arbitrary faulty messages by identical faulty
// messages and thus, do not address all types of arbitrary failures."
// This bench makes that comparison concrete on the value-dissemination
// task (one sender, possibly equivocating, n receivers):
//
//   * Bracha RB — echo/ready quorums, no cryptography: equivocation is
//     masked (consistency) but the culprit is never identified and a
//     *consistent* semantic corruption (same wrong value to everyone)
//     passes through untouched;
//   * certified dissemination (the paper's machinery): the corrupted value
//     fails its certificate everywhere, the sender lands in faulty_i, and
//     the group still reaches a certified vector.
//
// Counters: msgs / kbytes per dissemination, convicts_culprit (0/1),
// masks_only (0/1).
#include <benchmark/benchmark.h>

#include <map>

#include "faults/scenario.hpp"
#include "rb/bracha.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace modubft;

void run_bracha(benchmark::State& state, std::uint32_t n) {
  const std::uint32_t f = (n - 1) / 3;
  double msgs = 0, kbytes = 0;
  std::uint64_t delivered_all = 0, total = 0, seed = 1;

  for (auto _ : state) {
    rb::BrachaConfig cfg;
    cfg.n = n;
    cfg.f = f;

    sim::SimConfig sim_cfg;
    sim_cfg.n = n;
    sim_cfg.seed = seed++;
    sim::Simulation world(sim_cfg);

    std::map<std::uint32_t, std::size_t> delivered;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::optional<Bytes> msg;
      if (i == 0) msg = bytes_of("the-value");
      world.set_actor(ProcessId{i},
                      std::make_unique<rb::BrachaActor>(
                          cfg, msg, [&delivered, i](ProcessId, const Bytes&) {
                            delivered[i] += 1;
                          }));
    }
    world.run();

    total += 1;
    bool all = true;
    for (std::uint32_t i = 0; i < n; ++i) all = all && delivered[i] == 1;
    delivered_all += all;
    msgs += static_cast<double>(world.stats().messages_sent);
    kbytes += static_cast<double>(world.stats().bytes_sent) / 1024.0;
  }

  const double k = static_cast<double>(total);
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(delivered_all) / k;
  state.counters["convicts_culprit"] = 0;  // by construction: no detection
}

void run_certified(benchmark::State& state, std::uint32_t n,
                   bool corrupting_sender) {
  double msgs = 0, kbytes = 0;
  std::uint64_t ok = 0, convicted = 0, total = 0, seed = 1;

  for (auto _ : state) {
    faults::BftScenarioConfig cfg;
    cfg.n = n;
    cfg.f = bft::max_tolerated_faults(n);
    cfg.seed = seed++;
    if (corrupting_sender) {
      faults::FaultSpec spec;
      spec.who = ProcessId{0};  // the round-1 proposer
      spec.behavior = faults::Behavior::kCorruptVector;
      cfg.faults.push_back(spec);
    }
    faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
    total += 1;
    ok += r.termination && r.agreement && r.vector_validity;
    convicted += r.declared_faulty.count(0) > 0;
    msgs += static_cast<double>(r.run_stats.net.messages_sent);
    kbytes += static_cast<double>(r.run_stats.net.bytes_sent) / 1024.0;
  }

  const double k = static_cast<double>(total);
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(ok) / k;
  state.counters["convicts_culprit"] =
      100.0 * static_cast<double>(convicted) / k;
}

void register_all() {
  for (std::uint32_t n : {4u, 7u, 10u}) {
    benchmark::RegisterBenchmark(
        ("E13/bracha_masking/n:" + std::to_string(n)).c_str(),
        [n](benchmark::State& st) { run_bracha(st, n); });
    benchmark::RegisterBenchmark(
        ("E13/certified_clean/n:" + std::to_string(n)).c_str(),
        [n](benchmark::State& st) { run_certified(st, n, false); });
    benchmark::RegisterBenchmark(
        ("E13/certified_corrupting_sender/n:" + std::to_string(n)).c_str(),
        [n](benchmark::State& st) { run_certified(st, n, true); });
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
