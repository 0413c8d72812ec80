// E20 — client/service layer: end-to-end latency and overload shedding.
//
// Two questions, one report (BENCH_e20.json, see EXPERIMENTS.md):
//
//  1. What does a client actually observe?  End-to-end request latency
//     (first submission → f+1-certified reply) through the full stack —
//     REQUEST admission, relay, consensus, commit, REPLY certification —
//     with one op and with 8 ops in flight per client, sim + threads.  The
//     report records p50/p99/p999 and certified-ops throughput.
//
//  2. Does overload protection actually bound the queue?  A cell with 8
//     ops in flight per client drives the cluster with a deliberately tiny
//     admission bound (max_pending=4): replicas must shed with BUSY, the
//     pending-command peak must respect the n × max_pending relay ceiling,
//     and — the robustness headline — every operation still settles
//     exactly once (clients back off and retry until the queue drains).
//
// Every rep of every cell is audited: all clients certify their whole
// script and every accepted reply matches the committed log
// (audit_client_replies), and every overload rep must shed.  Each
// wall-clock cell runs kReps reps and records the median, quartiles and
// per-rep rates; the simulator is deterministic and runs once.  The
// report records nproc and the build type next to the rows.
//
// Usage: bench_e20_client [--out FILE] [--clients N] [--ops N]
//                         [--budget-ms MS]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/client_campaign.hpp"
#include "bench_json.hpp"
#include "bench_smr.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"

namespace {

using namespace modubft;

constexpr std::uint32_t kWindow = 4;
constexpr std::uint32_t kBatch = 2;
constexpr std::uint32_t kInFlight = 8;
constexpr int kReps = 5;  // per wall-clock cell
constexpr std::uint32_t kOverloadPending = 4;

enum class Mode { kClosed, kInFlight, kOverload };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kClosed: return "closed-loop";
    case Mode::kInFlight: return "8-in-flight";
    case Mode::kOverload: return "overload";
  }
  return "?";
}

struct Row {
  runtime::Backend substrate;
  Mode mode;
  bool ok = true;  // in every rep
  bool shed = true;  // every overload rep shed
  benchsmr::Spread ops_per_sec;  // over reps
  std::vector<double> rep_ops_per_sec;
  std::vector<double> rep_p50_us, rep_p99_us, rep_p999_us;
  faults::SmrScenarioResult last;
};

Row run_cell(runtime::Backend substrate, Mode mode, std::uint32_t clients,
             std::uint32_t ops, std::chrono::milliseconds budget) {
  Row row;
  row.substrate = substrate;
  row.mode = mode;
  for (int rep = 0; rep < benchsmr::reps_on(substrate, kReps); ++rep) {
    faults::SmrScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = 20 + static_cast<std::uint64_t>(rep);
    cfg.substrate = substrate;
    cfg.backend = smr::Backend::kByzantine;
    cfg.window = kWindow;
    cfg.batch = kBatch;
    cfg.budget = budget;
    cfg.checkpoint_interval = 8;

    faults::ClientLoadConfig load;
    load.count = clients;
    load.ops_per_client = ops;
    if (mode != Mode::kClosed) load.max_outstanding = kInFlight;
    if (mode == Mode::kOverload) load.max_pending = kOverloadPending;
    cfg.clients = load;

    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    const std::uint64_t total = static_cast<std::uint64_t>(clients) * ops;
    row.ok = row.ok && r.clean && r.all_committed && r.stores_agree &&
             r.clients_done.size() == clients &&
             r.run_stats.client.accepted == total &&
             r.commit_log_duplicates == 0 &&
             adversary::audit_client_replies(r).empty();
    if (mode == Mode::kOverload) {
      // The shedding headline: BUSY actually fired, and the pending set
      // respected the n × max_pending relay ceiling (plus one frontier
      // batch of slack for fetch-exempt bodies a parked commit needs).
      row.shed = row.shed && r.run_stats.client.sheds > 0;
      if (r.run_stats.client.queue_peak > cfg.n * kOverloadPending + kBatch) {
        row.ok = false;
      }
    }
    const double us = substrate == runtime::Backend::kSim
                          ? static_cast<double>(r.run_stats.virtual_time)
                          : static_cast<double>(r.run_stats.wall_us);
    row.rep_ops_per_sec.push_back(
        us > 0 ? static_cast<double>(r.run_stats.client.accepted) * 1e6 / us
               : 0);
    const runtime::ClientSummary& cs = r.run_stats.client;
    row.rep_p50_us.push_back(static_cast<double>(cs.p50_us));
    row.rep_p99_us.push_back(static_cast<double>(cs.p99_us));
    row.rep_p999_us.push_back(static_cast<double>(cs.p999_us));
    row.last = std::move(r);
  }
  row.ok = row.ok && row.shed;
  row.ops_per_sec = benchsmr::spread(row.rep_ops_per_sec);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e20.json";
  std::uint32_t clients = 4;
  std::uint32_t ops = 25;
  std::chrono::milliseconds budget{30'000};
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out = need("--out");
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      clients = static_cast<std::uint32_t>(std::atoi(need("--clients")));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = static_cast<std::uint32_t>(std::atoi(need("--ops")));
    } else if (std::strcmp(argv[i], "--budget-ms") == 0) {
      budget = std::chrono::milliseconds(
          std::strtoll(need("--budget-ms"), nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("E20: client/service layer, byz n=4 f=1, %u clients x %u ops, "
              "W=%u B=%u, %d reps per wall-clock cell\n",
              clients, ops, kWindow, kBatch, kReps);
  std::printf("%-8s %-12s %10s %9s %9s %9s %9s %7s %6s %10s %4s\n",
              "substrate", "mode", "ops/sec", "iqr", "p50_us", "p99_us",
              "p999_us", "retries", "sheds", "queue_peak", "ok");

  const std::vector<runtime::Backend> substrates = {
      runtime::Backend::kSim, runtime::Backend::kThreads};
  const std::vector<Mode> modes = {Mode::kClosed, Mode::kInFlight,
                                   Mode::kOverload};

  benchjson::JsonArray rows;
  bool all_ok = true;
  bool shedding_proved = true;
  for (runtime::Backend substrate : substrates) {
    for (Mode mode : modes) {
      Row row = run_cell(substrate, mode, clients, ops, budget);
      all_ok = all_ok && row.ok;
      if (mode == Mode::kOverload && !row.shed) shedding_proved = false;
      // Latency percentiles: the median over reps of each rep's value.
      const auto median_us = [](const std::vector<double>& reps) {
        return static_cast<std::uint64_t>(
            std::llround(benchsmr::spread(reps).median));
      };
      const std::uint64_t p50 = median_us(row.rep_p50_us);
      const std::uint64_t p99 = median_us(row.rep_p99_us);
      const std::uint64_t p999 = median_us(row.rep_p999_us);
      const runtime::ClientSummary& cs = row.last.run_stats.client;
      std::printf("%-8s %-12s %10.1f %9.1f %9llu %9llu %9llu %7llu %6llu "
                  "%10llu %4s\n",
                  runtime::backend_name(substrate), mode_name(mode),
                  row.ops_per_sec.median, row.ops_per_sec.iqr(),
                  static_cast<unsigned long long>(p50),
                  static_cast<unsigned long long>(p99),
                  static_cast<unsigned long long>(p999),
                  static_cast<unsigned long long>(cs.retries),
                  static_cast<unsigned long long>(cs.sheds),
                  static_cast<unsigned long long>(cs.queue_peak),
                  row.ok ? "yes" : "NO");
      benchjson::JsonObject o;
      o.field("substrate", runtime::backend_name(row.substrate))
          .field("mode", mode_name(row.mode))
          .field("reps", static_cast<std::uint64_t>(
                             row.rep_ops_per_sec.size()))
          .field("ops_per_sec", row.ops_per_sec.median)
          .field("ops_per_sec_q1", row.ops_per_sec.q1)
          .field("ops_per_sec_q3", row.ops_per_sec.q3)
          .field("ops_per_sec_iqr", row.ops_per_sec.iqr());
      o.raw("rep_ops_per_sec", benchsmr::reps_json(row.rep_ops_per_sec));
      o.field("rate_basis", benchsmr::time_basis(row.substrate))
          .field("accepted", cs.accepted)
          .field("p50_us", p50)
          .field("p99_us", p99)
          .field("p999_us", p999)
          .field("retries", cs.retries)
          .field("sheds", cs.sheds)
          .field("busy", cs.busy)
          .field("queue_peak", cs.queue_peak)
          .field("queue_bound",
                 static_cast<std::uint64_t>(4) * kOverloadPending + kBatch)
          .field("ok", row.ok);
      o.raw("run_stats", runtime::to_json(row.substrate, row.last.run_stats));
      rows.add(o.str());
    }
  }

  benchjson::JsonObject report;
  report.field("experiment", "e20_client")
      .field("protocol", "byzantine")
      .field("n", static_cast<std::uint64_t>(4))
      .field("f", static_cast<std::uint64_t>(1))
      .field("clients", static_cast<std::uint64_t>(clients))
      .field("ops_per_client", static_cast<std::uint64_t>(ops))
      .field("window", static_cast<std::uint64_t>(kWindow))
      .field("batch", static_cast<std::uint64_t>(kBatch))
      .field("in_flight", static_cast<std::uint64_t>(kInFlight))
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("overload_max_pending",
             static_cast<std::uint64_t>(kOverloadPending))
      .field("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("shedding_proved", shedding_proved)
      .field("all_ok", all_ok);
  report.raw("rows", rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());

  // Acceptance headline in the exit status: every rep of every cell
  // settled its whole script exactly once, and every overload rep shed
  // while holding the queue bound.
  return all_ok && shedding_proved ? 0 : 1;
}
