// E19 — staged ingest throughput: the end-to-end message path (epoll
// transport → parallel decode+verify prologue → sequential protocol
// stage, see docs/INGEST.md) against the BENCH_e17-era configuration
// (the strictly sequential W=1/B=1 message path, staged ingest off).
//
// Larger groups than E17's n=4 headline: n=7 (f=2) and n=10 (f=3), on
// both wall-clock substrates (threads and tcp) — certificate sizes and
// per-node inbound fan-in grow with n, which is exactly what the single
// epoll loop and the prologue's cross-message parallelism are for.  The
// default signature scheme is kRsa64, the repo's expensive-verification
// scheme: staging exists for deployments where signature checks dominate
// the ingest path (the paper's "usual certification mechanisms"), and
// that is the regime the acceptance is measured in.  --scheme hmac shows
// the cheap-signature end of the spectrum, where the prologue's extra
// decode pass costs about what the parallel warming saves (the report
// records it; no threshold applies there).
//
// Acceptance (tracked in BENCH_e19.json, encoded in the exit status): at
// every (substrate, n) cell, the staged pipeline at W=4/B=4 commits
// ≥ 1.5× the commands/sec of the E17-configuration baseline.  A third,
// informational row per cell isolates the prologue itself: W=4/B=4
// with staged ingest forced off.  The report records nproc and the build
// type, since both decide what the prologue's worker threads can buy.
//
// Every run also re-checks the equivalence claim: all_committed,
// stores_agree, and the staged/sequential runs of a cell must end with
// byte-identical stores — a throughput number from a diverged run is
// meaningless and fails the bench.
//
// Usage: bench_e19_ingest [--out FILE] [--commands N] [--reps R]
//                         [--budget-ms MS] [--scheme hmac|rsa64] [--smoke]
// --smoke: tiny-n single-rep equivalence + non-regression check for
// ctest (perf_smoke_ingest) — no BENCH file, relaxed threshold.
#include <algorithm>
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

struct CellConfig {
  runtime::Backend substrate;
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t window = 1;
  std::uint32_t batch = 1;
  bool staged = false;
  const char* label = "";
  faults::Scheme scheme = faults::Scheme::kRsa64;
};

const char* scheme_name(faults::Scheme s) {
  return s == faults::Scheme::kHmac ? "hmac" : "rsa64";
}

struct RunRow {
  CellConfig cfg;
  double commits_per_sec = 0;  // median over reps
  std::vector<double> rep_cps;
  bool ok = true;
  std::map<std::string, std::string> store;
  faults::SmrScenarioResult last;
};

RunRow run_cell(const CellConfig& cell, std::uint64_t commands, int reps,
                std::chrono::milliseconds budget) {
  RunRow row;
  row.cfg = cell;
  for (int rep = 0; rep < reps; ++rep) {
    faults::SmrScenarioConfig cfg;
    cfg.n = cell.n;
    cfg.f = cell.f;
    cfg.seed = 19 + static_cast<std::uint64_t>(rep);
    cfg.substrate = cell.substrate;
    cfg.backend = smr::Backend::kByzantine;
    cfg.workload = faults::kv_workload(commands);
    cfg.window = cell.window;
    cfg.batch = cell.batch;
    cfg.staged_ingest = cell.staged;
    cfg.scheme = cell.scheme;
    // Slack beyond ceil(commands / B): racing proposals can cost the odd
    // no-op slot; the throughput number must cover the whole workload.
    cfg.slots = (commands + cell.batch - 1) / cell.batch + 2;
    cfg.budget = budget;
    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    if (!r.clean || !r.all_committed || !r.stores_agree ||
        r.run_stats.pipeline.commands_committed != commands ||
        r.run_stats.ingest.staged != (cell.staged ? 1u : 0u)) {
      row.ok = false;
    }
    row.rep_cps.push_back(benchsmr::commits_per_sec(cell.substrate, r));
    row.store = r.store;
    row.last = std::move(r);
  }
  std::vector<double> sorted = row.rep_cps;
  std::sort(sorted.begin(), sorted.end());
  row.commits_per_sec = sorted[sorted.size() / 2];
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
      .field("staged_ingest", row.cfg.staged)
      .field("scheme", scheme_name(row.cfg.scheme))
      .field("commits_per_sec", row.commits_per_sec)
      .field("all_committed", row.ok);
  benchjson::JsonArray reps;
  for (double v : row.rep_cps) {
    std::ostringstream os;
    os << v;
    reps.add(os.str());
  }
  o.raw("rep_commits_per_sec", reps.str());
  o.raw("run_stats",
        runtime::to_json(row.cfg.substrate, row.last.run_stats));
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e19.json";
  std::uint64_t commands = 32;
  int reps = 3;
  std::chrono::milliseconds budget{30'000};
  bool smoke = false;
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
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(need("--reps"));
    } else if (std::strcmp(argv[i], "--budget-ms") == 0) {
      budget = std::chrono::milliseconds(
          std::strtoll(need("--budget-ms"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
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

  // --smoke (perf_smoke_ingest): one tiny threads cell, staged vs
  // sequential at the same W/B — equivalence must hold bit for bit, and
  // the staged path must not be catastrophically slower (non-regression,
  // not the acceptance threshold: a smoke run is too small to measure a
  // speedup meaningfully).
  if (smoke) {
    const std::uint64_t c = 12;
    CellConfig stg{runtime::Backend::kThreads, 4, 1, 4, 4, true, "staged",
                   scheme};
    CellConfig seq{runtime::Backend::kThreads, 4, 1, 4, 4, false,
                   "sequential", scheme};
    const RunRow a = run_cell(stg, c, 1, budget);
    const RunRow b = run_cell(seq, c, 1, budget);
    const bool stores_equal = a.store == b.store && !a.store.empty();
    const bool no_regression =
        b.commits_per_sec <= 0 ||
        a.commits_per_sec >= 0.25 * b.commits_per_sec;
    std::printf(
        "perf_smoke_ingest: staged %.1f c/s, sequential %.1f c/s, "
        "ok=%d/%d stores_equal=%d no_regression=%d\n",
        a.commits_per_sec, b.commits_per_sec, a.ok, b.ok,
        stores_equal, no_regression);
    return a.ok && b.ok && stores_equal && no_regression ? 0 : 1;
  }

  const std::vector<runtime::Backend> substrates = {
      runtime::Backend::kThreads, runtime::Backend::kTcp};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> groups = {
      {7, 2}, {10, 3}};  // (n, f)

  std::printf("E19: staged ingest, byz SMR, %llu commands, scheme=%s\n",
              static_cast<unsigned long long>(commands),
              scheme_name(scheme));
  std::printf("%-8s %3s %-14s %3s %3s %7s %14s %4s\n", "substrate", "n",
              "config", "W", "B", "staged", "commits/sec", "ok");

  benchjson::JsonArray rows;
  benchjson::JsonArray speedups;
  bool all_ok = true;
  double min_speedup = -1;
  for (runtime::Backend substrate : substrates) {
    for (const auto& [n, f] : groups) {
      // The three cells: the E17-era baseline, the full staged pipeline,
      // and the isolation row (same W/B, staged off).
      const CellConfig cells[] = {
          {substrate, n, f, 1, 1, false, "e17_baseline", scheme},
          {substrate, n, f, 4, 4, true, "staged_pipeline", scheme},
          {substrate, n, f, 4, 4, false, "w4b4_sequential", scheme},
      };
      double base = 0, staged = 0;
      std::map<std::string, std::string> staged_store, seq_store;
      for (const CellConfig& cell : cells) {
        RunRow row = run_cell(cell, commands, reps, budget);
        all_ok = all_ok && row.ok;
        if (std::strcmp(cell.label, "e17_baseline") == 0) {
          base = row.commits_per_sec;
        } else if (std::strcmp(cell.label, "staged_pipeline") == 0) {
          staged = row.commits_per_sec;
          staged_store = row.store;
        } else {
          seq_store = row.store;
        }
        std::printf("%-8s %3u %-14s %3u %3u %7s %14.1f %4s\n",
                    runtime::backend_name(substrate), n, cell.label,
                    cell.window, cell.batch, cell.staged ? "yes" : "no",
                    row.commits_per_sec, row.ok ? "yes" : "NO");
        rows.add(row_json(row));
      }
      // Equivalence across the cell: staged and sequential runs of the
      // same workload must end in the same store.
      if (staged_store != seq_store || staged_store.empty()) {
        std::printf("  !! staged/sequential stores diverged (n=%u)\n", n);
        all_ok = false;
      }
      const double speedup = base > 0 ? staged / base : 0;
      if (min_speedup < 0 || speedup < min_speedup) min_speedup = speedup;
      std::printf("  -> staged vs e17 baseline: %.2fx\n", speedup);
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
      .field("reps", static_cast<std::uint64_t>(reps))
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
  // catch an ingest-pipeline regression.
  return accepted ? 0 : 1;
}
