// E19 — the ingest path at larger n: the end-to-end message path (epoll
// transport → batched dispatch in arrival order → every signature checked
// inline by the receiving replica, see docs/INGEST.md) at W=4/B=4 against
// the E17-era configuration (the strictly sequential W=1/B=1 path).
//
// Larger groups than E17's n=4 headline: n=7 (f=2) and n=10 (f=3), on
// both wall-clock substrates (threads and tcp) — certificate sizes and
// per-node inbound fan-in grow with n, which is what the single epoll
// loop and the pipeline's overlap across replicas have to absorb.  The
// default signature scheme is kRsa64, the repo's expensive-verification
// scheme, so the acceptance is measured where signature checks dominate
// the ingest path (the paper's "usual certification mechanisms").
// --scheme hmac shows the cheap-signature end of the spectrum (the report
// records it; no threshold applies there).
//
// Acceptance (tracked in BENCH_e19.json, encoded in the exit status): at
// every (substrate, n) cell, the median commands/sec of W=4/B=4 is
// ≥ 1.5× the median of the W=1/B=1 baseline.  Each row runs kReps reps
// and records the median and the interquartile range; the report records
// nproc and the build type.
//
// Every run also re-checks correctness: all_committed, stores_agree, and
// the two rows of a cell must end with byte-identical stores — a
// throughput number from a diverged run is meaningless and fails the
// bench.
//
// Usage: bench_e19_ingest [--out FILE] [--commands N] [--budget-ms MS]
//                         [--scheme hmac|rsa64]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "bench_smr.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"
#include "smr/replica.hpp"

namespace {

using namespace modubft;

constexpr int kReps = 5;  // per row

struct CellConfig {
  runtime::Backend substrate;
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t window = 1;
  std::uint32_t batch = 1;
  const char* label = "";
  faults::Scheme scheme = faults::Scheme::kRsa64;
};

const char* scheme_name(faults::Scheme s) {
  return s == faults::Scheme::kHmac ? "hmac" : "rsa64";
}

struct RunRow {
  CellConfig cfg;
  benchsmr::Spread cps;  // over reps
  std::vector<double> rep_cps;
  bool ok = true;
  std::map<std::string, std::string> store;
  faults::SmrScenarioResult last;
};

RunRow run_cell(const CellConfig& cell, std::uint64_t commands,
                std::chrono::milliseconds budget) {
  RunRow row;
  row.cfg = cell;
  for (int rep = 0; rep < kReps; ++rep) {
    faults::SmrScenarioConfig cfg;
    cfg.n = cell.n;
    cfg.f = cell.f;
    cfg.seed = 19 + static_cast<std::uint64_t>(rep);
    cfg.substrate = cell.substrate;
    cfg.backend = smr::Backend::kByzantine;
    cfg.workload = faults::kv_workload(commands);
    cfg.window = cell.window;
    cfg.batch = cell.batch;
    cfg.scheme = cell.scheme;
    cfg.budget = budget;
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

std::string row_json(const RunRow& row) {
  benchjson::JsonObject o;
  o.field("substrate", runtime::backend_name(row.cfg.substrate))
      .field("n", static_cast<std::uint64_t>(row.cfg.n))
      .field("f", static_cast<std::uint64_t>(row.cfg.f))
      .field("config", row.cfg.label)
      .field("window", static_cast<std::uint64_t>(row.cfg.window))
      .field("batch", static_cast<std::uint64_t>(row.cfg.batch))
      .field("scheme", scheme_name(row.cfg.scheme))
      .field("commits_per_sec", row.cps.median)
      .field("commits_per_sec_q1", row.cps.q1)
      .field("commits_per_sec_q3", row.cps.q3)
      .field("commits_per_sec_iqr", row.cps.iqr())
      .field("all_committed", row.ok);
  o.raw("rep_commits_per_sec", benchsmr::reps_json(row.rep_cps));
  o.raw("run_stats",
        runtime::to_json(row.cfg.substrate, row.last.run_stats));
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e19.json";
  std::uint64_t commands = 32;
  std::chrono::milliseconds budget{30'000};
  faults::Scheme scheme = faults::Scheme::kRsa64;
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
    } else if (std::strcmp(argv[i], "--scheme") == 0) {
      const std::string name = need("--scheme");
      if (name == "hmac") {
        scheme = faults::Scheme::kHmac;
      } else if (name == "rsa64") {
        scheme = faults::Scheme::kRsa64;
      } else {
        std::fprintf(stderr, "--scheme must be hmac or rsa64\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const std::vector<runtime::Backend> substrates = {
      runtime::Backend::kThreads, runtime::Backend::kTcp};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> groups = {
      {7, 2}, {10, 3}};  // (n, f)

  std::printf("E19: ingest path, byz SMR, %llu commands, scheme=%s\n",
              static_cast<unsigned long long>(commands),
              scheme_name(scheme));
  std::printf("%-8s %3s %-14s %3s %3s %14s %10s %4s\n", "substrate", "n",
              "config", "W", "B", "commits/sec", "IQR", "ok");

  benchjson::JsonArray rows;
  benchjson::JsonArray speedups;
  bool all_ok = true;
  double min_speedup = -1;
  for (runtime::Backend substrate : substrates) {
    for (const auto& [n, f] : groups) {
      const RunRow base =
          run_cell({substrate, n, f, 1, 1, "e17_baseline", scheme}, commands,
                   budget);
      const RunRow piped =
          run_cell({substrate, n, f, 4, 4, "w4b4_pipeline", scheme},
                   commands, budget);
      for (const RunRow* row : {&base, &piped}) {
        all_ok = all_ok && row->ok;
        std::printf("%-8s %3u %-14s %3u %3u %14.1f %10.1f %4s\n",
                    runtime::backend_name(substrate), n, row->cfg.label,
                    row->cfg.window, row->cfg.batch, row->cps.median,
                    row->cps.iqr(), row->ok ? "yes" : "NO");
        rows.add(row_json(*row));
      }
      // Both rows of a cell run the same workload: their stores must
      // agree byte for byte.
      if (base.store != piped.store || base.store.empty()) {
        std::printf("  !! W1B1/W4B4 stores diverged (n=%u)\n", n);
        all_ok = false;
      }
      const double speedup =
          base.cps.median > 0 ? piped.cps.median / base.cps.median : 0;
      if (min_speedup < 0 || speedup < min_speedup) min_speedup = speedup;
      std::printf("  -> W4B4 vs e17 baseline: %.2fx\n", speedup);
      benchjson::JsonObject s;
      s.field("substrate", runtime::backend_name(substrate))
          .field("n", static_cast<std::uint64_t>(n))
          .field("speedup_vs_e17_baseline", speedup);
      speedups.add(s.str());
    }
  }

  // The ≥1.5× acceptance is defined in the verification-dominated (rsa64)
  // regime; an hmac run reports speedups informationally only.
  const bool threshold_applies = scheme == faults::Scheme::kRsa64;
  std::printf("minimum speedup across cells: %.2fx (%s)\n", min_speedup,
              threshold_applies ? "acceptance >= 1.5"
                                : "informational: no threshold under hmac");
  const bool accepted =
      all_ok && (!threshold_applies || min_speedup >= 1.5);

  benchjson::JsonObject report;
  report.field("experiment", "e19_ingest")
      .field("protocol", "byzantine")
      .field("scheme", scheme_name(scheme))
      .field("commands", commands)
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("min_speedup_vs_e17_baseline", min_speedup)
      .field("all_committed", all_ok)
      .field("accepted", accepted);
  report.raw("speedups", speedups.str());
  report.raw("rows", rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());

  // Acceptance doubles as the exit status so CI and the bench runner
  // catch an ingest-path regression.
  return accepted ? 0 : 1;
}
