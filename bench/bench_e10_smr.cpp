// E10 — replicated-state-machine throughput on top of consensus.
//
// The downstream workload the paper motivates: a KV store ordering
// commands through repeated consensus instances.  Compares the crash-model
// back-end (Hurfin–Raynal) against the transformed Byzantine back-end on
// the same command stream.  Expected shape: per-slot latency of the BFT
// back-end ≈ crash back-end plus the INIT-phase round trip and the
// certificate bytes; a silent replica (within the fault bound) leaves
// throughput unchanged because slots only need n−F participants.
#include <benchmark/benchmark.h>

#include "crypto/hmac_signer.hpp"
#include "fd/oracle_fd.hpp"
#include "sim/simulation.hpp"
#include "smr/replica.hpp"

namespace {

using namespace modubft;
using smr::Command;

std::vector<Command> workload(std::uint64_t count) {
  std::vector<Command> out;
  for (std::uint64_t i = 1; i <= count; ++i) {
    out.push_back(Command{i, Command::Op::kPut, "key" + std::to_string(i % 16),
                          std::to_string(i)});
  }
  return out;
}

void run_case(benchmark::State& state, smr::Backend backend, std::uint32_t n,
              bool one_silent) {
  constexpr std::uint64_t kCommands = 10;
  double slot_ms = 0, msgs = 0, kbytes = 0;
  std::uint64_t converged = 0, total = 0, seed = 1;

  for (auto _ : state) {
    crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(n, seed);
    sim::SimConfig sim_cfg;
    sim_cfg.n = n;
    sim_cfg.seed = seed++;
    sim::Simulation world(sim_cfg);

    bft::BftConfig bft_cfg;
    bft_cfg.n = n;
    bft_cfg.f = bft::max_tolerated_faults(n);

    std::vector<std::optional<SimTime>> crash_times(n, std::nullopt);
    if (one_silent) crash_times[n - 1] = SimTime{0};

    std::vector<smr::Replica*> replicas(n, nullptr);
    SimTime last_commit = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      smr::ReplicaConfig cfg;
      cfg.n = n;
      cfg.backend = backend;
      cfg.bft = bft_cfg;
      cfg.signer = keys.signers[i].get();
      cfg.verifier = keys.verifier;
      cfg.detector =
          std::make_shared<fd::OracleDetector>(crash_times, fd::OracleConfig{});
      auto replica = std::make_unique<smr::Replica>(
          cfg, workload(kCommands), smr::CommitFn{});
      replicas[i] = replica.get();
      world.set_actor(ProcessId{i}, std::move(replica));
      if (crash_times[i].has_value()) world.crash_at(ProcessId{i}, 0);
    }
    world.run();

    total += 1;
    bool all_converged = true;
    const std::uint32_t live = one_silent ? n - 1 : n;
    for (std::uint32_t i = 0; i < live; ++i) {
      all_converged = all_converged &&
                      replicas[i]->store().applied_count() == kCommands &&
                      replicas[i]->store().contents() ==
                          replicas[0]->store().contents();
    }
    converged += all_converged;
    last_commit = world.now();
    const double slots = static_cast<double>(replicas[0]->committed_slots());
    slot_ms += static_cast<double>(last_commit) / 1000.0 / slots;
    msgs += static_cast<double>(world.stats().messages_sent) / slots;
    kbytes += static_cast<double>(world.stats().bytes_sent) / 1024.0 / slots;
  }

  const double k = static_cast<double>(total);
  state.counters["slot_ms"] = slot_ms / k;
  state.counters["msgs_per_slot"] = msgs / k;
  state.counters["kb_per_slot"] = kbytes / k;
  state.counters["converged_pct"] = 100.0 * static_cast<double>(converged) / k;
}

void register_all() {
  for (std::uint32_t n : {4u, 7u}) {
    for (auto [backend, label] :
         {std::pair{smr::Backend::kCrashHurfinRaynal, "crash_HR"},
          std::pair{smr::Backend::kByzantine, "BFT"}}) {
      for (bool silent : {false, true}) {
        std::string name = std::string("E10/kv_smr/") + label +
                           "/n:" + std::to_string(n) +
                           (silent ? "/one_silent" : "/all_up");
        benchmark::RegisterBenchmark(
            name.c_str(), [backend, n, silent](benchmark::State& st) {
              run_case(st, backend, n, silent);
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
