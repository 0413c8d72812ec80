// E17 — pipelined SMR throughput: sliding window × batching sweep.
//
// Measures end-to-end SMR commit throughput (committed commands per
// second) as a function of the pipeline window W and batch size B, on the
// deterministic simulator (virtual-time rate, exactly reproducible) and
// the wall-clock clusters (real parallelism: the per-process threads
// overlap work across in-flight slots, each replica checking every
// signature on its own thread).  The Byzantine back-end runs every row.
//
// Two groups of cells, each a (substrate, n) pair:
//   * n = 4, f = 1, hmac, seeds 17 + rep: the W × B sweep on sim and
//     threads.  The headline: on threads, (W=4, B=4) must commit ≥ 2× the
//     commands/sec of the sequential (W=1, B=1) baseline.
//   * n = 7, f = 2 and n = 10, f = 3, rsa64, seeds 19 + rep: W1B1 against
//     W4B4 on threads and tcp.  Certificate sizes and per-node inbound
//     fan-in grow with n, and rsa64 puts the run where signature checks
//     dominate (the paper's "usual certification mechanisms").  In each of
//     the four cells W4B4 must commit ≥ 1.5× the W1B1 commands/sec.
// Both gates compare medians, and together they are the exit status.
// Each wall-clock row runs kReps reps and records the median and the
// interquartile range; the report records nproc and the build type.
//
// Every run also re-checks correctness: a clean end, all_committed,
// stores_agree, and every row of a cell must end with a byte-identical
// store — a throughput number from a diverged run is meaningless and
// fails the bench.
//
// Usage: bench_e17_pipeline [--out FILE] [--commands N] [--budget-ms MS]
// Writes the JSON report to FILE (default BENCH_e17.json in the working
// directory) and prints a human-readable table to stdout.  --budget-ms
// overrides both groups' budgets (20 s at n = 4, 30 s above).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "bench_smr.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"
#include "smr/replica.hpp"

namespace {

using namespace modubft;

constexpr int kReps = 5;  // per wall-clock row

/// One (substrate, n) cell: its rows share everything but (W, B).
struct Cell {
  runtime::Backend substrate;
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  faults::Scheme scheme = faults::Scheme::kHmac;
  std::uint64_t seed_base = 17;
  std::chrono::milliseconds budget{20'000};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sweep;  // (W, B)
  double min_speedup = 0;  // W4B4 / W1B1 gate; 0 when none applies
};

const char* scheme_name(faults::Scheme s) {
  return s == faults::Scheme::kHmac ? "hmac" : "rsa64";
}

struct RunRow {
  std::uint32_t window = 1;
  std::uint32_t batch = 1;
  benchsmr::Spread cps;  // over reps
  std::vector<double> rep_cps;
  bool ok = true;
  std::map<std::string, std::string> store;
  faults::SmrScenarioResult last;
};

RunRow run_row(const Cell& cell, std::uint32_t w, std::uint32_t b,
               std::uint64_t commands) {
  RunRow row;
  row.window = w;
  row.batch = b;
  for (int rep = 0; rep < benchsmr::reps_on(cell.substrate, kReps); ++rep) {
    faults::SmrScenarioConfig cfg;
    cfg.n = cell.n;
    cfg.f = cell.f;
    cfg.seed = cell.seed_base + static_cast<std::uint64_t>(rep);
    cfg.substrate = cell.substrate;
    cfg.backend = smr::Backend::kByzantine;
    cfg.workload = faults::kv_workload(commands);
    cfg.window = w;
    cfg.batch = b;
    cfg.scheme = cell.scheme;
    cfg.budget = cell.budget;
    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    if (!r.clean || !r.all_committed || !r.stores_agree ||
        r.run_stats.pipeline.commands_committed != commands) {
      row.ok = false;
    }
    row.rep_cps.push_back(benchsmr::commits_per_sec(cell.substrate, r));
    row.store = r.store;
    row.last = std::move(r);
  }
  row.cps = benchsmr::spread(row.rep_cps);
  return row;
}

std::string row_json(const Cell& cell, const RunRow& row) {
  benchjson::JsonObject o;
  o.field("substrate", runtime::backend_name(cell.substrate))
      .field("n", static_cast<std::uint64_t>(cell.n))
      .field("f", static_cast<std::uint64_t>(cell.f))
      .field("scheme", scheme_name(cell.scheme))
      .field("window", static_cast<std::uint64_t>(row.window))
      .field("batch", static_cast<std::uint64_t>(row.batch))
      .field("commits_per_sec", row.cps.median)
      .field("commits_per_sec_q1", row.cps.q1)
      .field("commits_per_sec_q3", row.cps.q3)
      .field("commits_per_sec_iqr", row.cps.iqr())
      .field("all_committed", row.ok);
  o.raw("rep_commits_per_sec", benchsmr::reps_json(row.rep_cps));
  o.field("rate_basis", benchsmr::time_basis(cell.substrate));
  o.raw("run_stats", runtime::to_json(cell.substrate, row.last.run_stats));
  return o.str();
}

std::vector<Cell> cells(std::optional<std::chrono::milliseconds> budget) {
  using runtime::Backend;
  std::vector<Cell> out;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sweep = {
      {1, 1}, {2, 2}, {4, 4}, {4, 1}, {1, 4}};
  out.push_back({Backend::kSim, 4, 1, faults::Scheme::kHmac, 17,
                 std::chrono::milliseconds{20'000}, sweep, 0});
  out.push_back({Backend::kThreads, 4, 1, faults::Scheme::kHmac, 17,
                 std::chrono::milliseconds{20'000}, sweep, 2.0});
  for (Backend substrate : {Backend::kThreads, Backend::kTcp}) {
    for (const auto& [n, f] : {std::pair{7u, 2u}, std::pair{10u, 3u}}) {
      out.push_back({substrate, n, f, faults::Scheme::kRsa64, 19,
                     std::chrono::milliseconds{30'000}, {{1, 1}, {4, 4}},
                     1.5});
    }
  }
  if (budget) {
    for (Cell& cell : out) cell.budget = *budget;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e17.json";
  std::uint64_t commands = 32;
  std::optional<std::chrono::milliseconds> budget;
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
    } else if (std::strcmp(argv[i], "--commands") == 0) {
      commands = std::strtoull(need("--commands"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--budget-ms") == 0) {
      budget = std::chrono::milliseconds(
          std::strtoll(need("--budget-ms"), nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("E17: pipelined SMR, byz, %llu commands\n",
              static_cast<unsigned long long>(commands));
  std::printf("%-8s %3s %-6s %3s %3s %14s %10s %4s\n", "substrate", "n",
              "scheme", "W", "B", "commits/sec", "IQR", "ok");

  benchjson::JsonArray rows;
  benchjson::JsonArray speedups;
  bool all_ok = true;
  bool gates_hold = true;
  for (const Cell& cell : cells(budget)) {
    double w1b1 = 0, w4b4 = 0;
    std::optional<std::map<std::string, std::string>> store;
    for (const auto& [w, b] : cell.sweep) {
      const RunRow row = run_row(cell, w, b, commands);
      all_ok = all_ok && row.ok;
      if (w == 1 && b == 1) w1b1 = row.cps.median;
      if (w == 4 && b == 4) w4b4 = row.cps.median;
      std::printf("%-8s %3u %-6s %3u %3u %14.1f %10.1f %4s\n",
                  runtime::backend_name(cell.substrate), cell.n,
                  scheme_name(cell.scheme), w, b, row.cps.median,
                  row.cps.iqr(), row.ok ? "yes" : "NO");
      rows.add(row_json(cell, row));
      // Every row of a cell runs the same workload: the stores must agree
      // byte for byte.
      if (!store) store = row.store;
      if (row.store != *store || row.store.empty()) {
        std::printf("  !! stores diverged (W=%u B=%u)\n", w, b);
        all_ok = false;
      }
    }
    if (cell.min_speedup == 0) continue;
    const double speedup = w1b1 > 0 ? w4b4 / w1b1 : 0;
    gates_hold = gates_hold && speedup >= cell.min_speedup;
    std::printf("  -> %s n=%u W4B4 / W1B1: %.2fx (gate >= %.1f)\n",
                runtime::backend_name(cell.substrate), cell.n, speedup,
                cell.min_speedup);
    benchjson::JsonObject s;
    s.field("substrate", runtime::backend_name(cell.substrate))
        .field("n", static_cast<std::uint64_t>(cell.n))
        .field("speedup_w4b4", speedup)
        .field("gate", cell.min_speedup);
    speedups.add(s.str());
  }
  const bool accepted = all_ok && gates_hold;

  benchjson::JsonObject report;
  report.field("experiment", "e17_pipeline")
      .field("protocol", "byzantine")
      .field("commands", commands)
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("all_committed", all_ok)
      .field("accepted", accepted);
  report.raw("speedups", speedups.str());
  report.raw("rows", rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());

  // Both gates double as the exit status so CI and the bench runner catch
  // a pipelining regression.
  return accepted ? 0 : 1;
}
