#include "workloads.hpp"

#include "adversary/client_campaign.hpp"
#include "probe.hpp"

namespace perfbench {

namespace mb = modubft;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      // The transformed Byzantine protocol in steady state with every cost
      // on one core; 800 ops grow the command table until its scan
      // dominates the replica's per-op cost.
      {"byz-sim", mb::runtime::Backend::kSim, mb::smr::Backend::kByzantine,
       /*clients=*/4, /*ops_per_client=*/200, /*in_flight=*/1,
       /*kill_at=*/0, /*restart_at=*/0},
      // The crash-model starting point.  Replica 0, client 0's contact, is
      // killed a third of the way into the ~900 ms simulated run and
      // restarted at two thirds, so recovery, retry and failover do work.
      {"crash-restart-sim", mb::runtime::Backend::kSim,
       mb::smr::Backend::kCrashHurfinRaynal,
       /*clients=*/4, /*ops_per_client=*/300, /*in_flight=*/1,
       /*kill_at=*/300'000, /*restart_at=*/600'000},
      // The only workload where the transport mailboxes, on_batch, the
      // verify pool and the staged prologue run, with wall-clock latency;
      // one replica admits and relays every request.  Not in
      // BENCHMARK.json: its wall-clock figures follow the host's steal
      // time (perfbench/README.md).
      {"byz-threads", mb::runtime::Backend::kThreads,
       mb::smr::Backend::kByzantine,
       /*clients=*/1, /*ops_per_client=*/1000, /*in_flight=*/4,
       /*kill_at=*/0, /*restart_at=*/0},
  };
  return kAll;
}

std::uint64_t Workload::slots() const {
  return 2 * total_ops() + 2 * kWindow;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

mb::faults::SmrScenarioConfig make_config(const Workload& w,
                                          std::uint64_t seed, Probe& probe) {
  mb::faults::SmrScenarioConfig cfg;
  cfg.n = kReplicas;
  cfg.f = kFaulty;
  cfg.seed = seed;
  cfg.substrate = w.substrate;
  cfg.backend = w.backend;
  cfg.latency = mb::sim::calm_network();  // 100 µs + Exp(150 µs), FIFO
  cfg.scheme = mb::faults::Scheme::kHmac;
  cfg.window = kWindow;
  cfg.batch = kBatch;
  cfg.checkpoint_interval = kCheckpointInterval;
  cfg.slots = w.slots();
  cfg.budget = std::chrono::milliseconds(30'000);
  if (w.kill_at > 0) {
    mb::faults::CrashSpec kill;
    kill.who = mb::ProcessId{0};
    kill.at = w.kill_at;
    kill.restart_at = w.restart_at;
    cfg.crashes.push_back(kill);
  }

  mb::faults::ClientLoadConfig load;
  load.count = w.clients;
  load.ops_per_client = w.ops_per_client;
  if (w.in_flight > 1) {
    // The client refills to max_outstanding on every certification, so
    // this is a closed loop with `in_flight` ops outstanding.
    load.open_loop = true;
    load.max_outstanding = w.in_flight;
    load.interval = 2'000;
  }
  cfg.clients = load;

  cfg.wrap_actor = [&probe](mb::ProcessId,
                            std::unique_ptr<mb::sim::Actor> actor) {
    return probe.wrap(std::move(actor));
  };
  return cfg;
}

Verdict check(const Workload& w, const mb::faults::SmrScenarioResult& r) {
  Verdict v;
  v.attempted = w.total_ops();
  const std::uint64_t certified = r.run_stats.client.accepted;
  v.failed = certified >= v.attempted ? 0 : v.attempted - certified;
  if (v.failed > 0 || r.clients_done.size() != w.clients) {
    v.problems.push_back("not every scripted op certified");
  }
  if (!r.clean) v.problems.push_back("run hit a limit before finishing");
  if (!r.stores_agree) v.problems.push_back("correct stores disagree");
  if (r.commit_log_duplicates != 0) {
    v.problems.push_back("a command was applied twice");
  }
  if (!mb::adversary::audit_client_replies(r).empty()) {
    v.problems.push_back("an accepted reply contradicts the committed log");
  }
  if (w.kill_at > 0 && r.recovered.count(0) == 0) {
    v.problems.push_back("the restarted replica did not rejoin");
  }
  return v;
}

}  // namespace perfbench
