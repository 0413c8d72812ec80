// E11 — Vector Consensus vs its synchronous ancestor.
//
// Footnote 6: "The Vector Consensus notion has first been proposed in
// synchronous systems where it is called Interactive Consistency [11]."
// This bench puts the two side by side on the same (n, f):
//
//   * EIG/IC  — Pease–Shostak–Lamport oral messages: f+1 lockstep rounds,
//     no cryptography, but requires synchrony, n > 3f, and gathers
//     O(n^{f+1}) information (bytes explode with f);
//   * BFT     — the paper's transformed protocol: asynchronous (◇M), same
//     n > 3f resilience via certificates, byte cost O(n²·rounds) —
//     polynomial where EIG is exponential, paid for with signatures.
//
// Expected shape: at f = 1 the two are comparable; at f = 2 EIG's bytes
// grow by ~n× while the async protocol's grow mildly; EIG needs exactly
// f+1 rounds by construction, the async protocol usually one.
#include <benchmark/benchmark.h>

#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "sync/eig_ic.hpp"
#include "sync/sm_ic.hpp"

namespace {

using namespace modubft;

void run_eig(benchmark::State& state, std::uint32_t n, std::uint32_t f,
             std::uint32_t liars) {
  double msgs = 0, kbytes = 0;
  std::uint64_t agree = 0, total = 0;
  for (auto _ : state) {
    std::map<std::uint32_t, std::vector<sync::Value>> vectors;
    std::vector<std::unique_ptr<sync::SyncProcess>> procs;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i >= 1 && i <= liars) {
        procs.push_back(std::make_unique<sync::EigLiar>(n, f, ProcessId{i}));
      } else {
        procs.push_back(std::make_unique<sync::EigProcess>(
            n, f, ProcessId{i}, 1000 + i,
            [&vectors](ProcessId who, const std::vector<sync::Value>& v) {
              vectors.emplace(who.value, v);
            }));
      }
    }
    sync::SyncStats stats =
        sync::run_lockstep_rounds(procs, sync::EigProcess::rounds_for(f));
    total += 1;
    bool ok = vectors.size() == n - liars;
    for (auto& [i, v] : vectors) ok = ok && v == vectors.begin()->second;
    agree += ok;
    msgs += static_cast<double>(stats.messages);
    kbytes += static_cast<double>(stats.bytes) / 1024.0;
  }
  const double k = static_cast<double>(total);
  state.counters["rounds"] = f + 1;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(agree) / k;
}

void run_sm(benchmark::State& state, std::uint32_t n, std::uint32_t f,
            std::uint32_t liars) {
  double msgs = 0, kbytes = 0;
  std::uint64_t agree = 0, total = 0, seed = 1;
  for (auto _ : state) {
    crypto::SignatureSystem keys =
        crypto::HmacScheme{}.make_system(n, seed++);
    std::map<std::uint32_t, std::vector<sync::Value>> vectors;
    std::vector<std::unique_ptr<sync::SyncProcess>> procs;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i >= 1 && i <= liars) {
        procs.push_back(std::make_unique<sync::SmEquivocator>(
            n, ProcessId{i}, keys.signers[i].get()));
      } else {
        procs.push_back(std::make_unique<sync::SmProcess>(
            n, f, ProcessId{i}, 1000 + i, keys.signers[i].get(),
            keys.verifier,
            [&vectors](ProcessId who, const std::vector<sync::Value>& v) {
              vectors.emplace(who.value, v);
            }));
      }
    }
    sync::SyncStats stats =
        sync::run_lockstep_rounds(procs, sync::SmProcess::rounds_for(f));
    total += 1;
    bool ok = vectors.size() == n - liars;
    for (auto& [i, v] : vectors) ok = ok && v == vectors.begin()->second;
    agree += ok;
    msgs += static_cast<double>(stats.messages);
    kbytes += static_cast<double>(stats.bytes) / 1024.0;
  }
  const double k = static_cast<double>(total);
  state.counters["rounds"] = f + 1;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(agree) / k;
}

void run_bft(benchmark::State& state, std::uint32_t n, std::uint32_t f,
             std::uint32_t liars) {
  double rounds = 0, msgs = 0, kbytes = 0;
  std::uint64_t ok = 0, total = 0, seed = 1;
  for (auto _ : state) {
    faults::BftScenarioConfig cfg;
    cfg.n = n;
    cfg.f = f;
    cfg.seed = seed++;
    for (std::uint32_t i = 1; i <= liars; ++i) {
      faults::FaultSpec spec;
      spec.who = ProcessId{i};
      spec.behavior = faults::Behavior::kLieInit;
      cfg.faults.push_back(spec);
    }
    faults::BftScenarioResult r = faults::run_bft_scenario(cfg);
    total += 1;
    ok += r.termination && r.agreement && r.vector_validity;
    rounds += r.max_decision_round.value;
    msgs += static_cast<double>(r.run_stats.net.messages_sent);
    kbytes += static_cast<double>(r.run_stats.net.bytes_sent) / 1024.0;
  }
  const double k = static_cast<double>(total);
  state.counters["rounds"] = rounds / k;
  state.counters["msgs"] = msgs / k;
  state.counters["kbytes"] = kbytes / k;
  state.counters["ok_pct"] = 100.0 * static_cast<double>(ok) / k;
}

void register_all() {
  struct Case {
    std::uint32_t n, f, liars;
  };
  for (Case c : {Case{4, 1, 1}, Case{7, 2, 2}, Case{10, 3, 3}}) {
    std::string suffix = "/n:" + std::to_string(c.n) +
                         "/f:" + std::to_string(c.f) +
                         "/liars:" + std::to_string(c.liars);
    benchmark::RegisterBenchmark(
        ("E11/sync_EIG_IC" + suffix).c_str(),
        [c](benchmark::State& st) { run_eig(st, c.n, c.f, c.liars); });
    benchmark::RegisterBenchmark(
        ("E11/sync_SM_signed" + suffix).c_str(),
        [c](benchmark::State& st) { run_sm(st, c.n, c.f, c.liars); });
    benchmark::RegisterBenchmark(
        ("E11/async_BFT" + suffix).c_str(),
        [c](benchmark::State& st) { run_bft(st, c.n, c.f, c.liars); });
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
