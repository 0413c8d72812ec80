// E17 — pipelined SMR throughput: sliding window × batching sweep.
//
// Measures end-to-end SMR commit throughput (committed commands per
// second) as a function of the pipeline window W and batch size B, on the
// deterministic simulator (virtual-time rate, exactly reproducible) and
// the threaded wall-clock cluster (real parallelism: the per-process
// threads overlap work across in-flight slots, each replica checking
// every signature on its own thread).  The Byzantine back-end with n = 4,
// f = 1 is the headline configuration — signature verification dominates
// there, which is what windowing overlaps across replicas.
//
// Acceptance headline (tracked in BENCH_e17.json, see EXPERIMENTS.md):
// on the threads substrate, (W=4, B=4) must commit ≥ 2× the commands/sec
// of the sequential (W=1, B=1) baseline, comparing medians.  Each
// wall-clock row runs kReps reps and records the median and the
// interquartile range; the report records nproc and the build type next
// to the rows.
//
// Usage: bench_e17_pipeline [--out FILE] [--commands N] [--budget-ms MS]
// Writes the JSON report to FILE (default BENCH_e17.json in the working
// directory) and prints a human-readable table to stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

constexpr int kReps = 5;  // per wall-clock row

struct RunRow {
  runtime::Backend substrate;
  std::uint32_t window = 1;
  std::uint32_t batch = 1;
  benchsmr::Spread cps;  // over reps
  std::vector<double> rep_cps;
  bool ok = true;
  faults::SmrScenarioResult last;
};

RunRow run_config(runtime::Backend substrate, std::uint32_t w,
                  std::uint32_t b, std::uint64_t commands,
                  std::chrono::milliseconds budget) {
  RunRow row;
  row.substrate = substrate;
  row.window = w;
  row.batch = b;
  for (int rep = 0; rep < benchsmr::reps_on(substrate, kReps); ++rep) {
    faults::SmrScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = 17 + static_cast<std::uint64_t>(rep);
    cfg.substrate = substrate;
    cfg.backend = smr::Backend::kByzantine;
    cfg.workload = faults::kv_workload(commands);
    cfg.window = w;
    cfg.batch = b;
    cfg.budget = budget;
    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    if (!r.all_committed || !r.stores_agree ||
        r.run_stats.pipeline.commands_committed != commands) {
      row.ok = false;
    }
    row.rep_cps.push_back(benchsmr::commits_per_sec(substrate, r));
    row.last = std::move(r);
  }
  row.cps = benchsmr::spread(row.rep_cps);
  return row;
}

std::string row_json(const RunRow& row) {
  benchjson::JsonObject o;
  o.field("substrate", runtime::backend_name(row.substrate))
      .field("window", static_cast<std::uint64_t>(row.window))
      .field("batch", static_cast<std::uint64_t>(row.batch))
      .field("commits_per_sec", row.cps.median)
      .field("commits_per_sec_q1", row.cps.q1)
      .field("commits_per_sec_q3", row.cps.q3)
      .field("commits_per_sec_iqr", row.cps.iqr())
      .field("all_committed", row.ok);
  o.raw("rep_commits_per_sec", benchsmr::reps_json(row.rep_cps));
  o.field("rate_basis", benchsmr::time_basis(row.substrate));
  o.raw("run_stats",
        runtime::to_json(row.substrate, row.last.run_stats));
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e17.json";
  std::uint64_t commands = 32;
  std::chrono::milliseconds budget{20'000};
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

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sweep = {
      {1, 1}, {2, 2}, {4, 4}, {4, 1}, {1, 4}};
  const std::vector<runtime::Backend> substrates = {
      runtime::Backend::kSim, runtime::Backend::kThreads};

  std::printf("E17: pipelined SMR, byz n=4 f=1, %llu commands\n",
              static_cast<unsigned long long>(commands));
  std::printf("%-8s %3s %3s %14s %10s %4s\n", "substrate", "W", "B",
              "commits/sec", "IQR", "ok");

  benchjson::JsonArray rows;
  double w1b1_threads = 0, w4b4_threads = 0;
  bool all_ok = true;
  for (runtime::Backend substrate : substrates) {
    for (const auto& [w, b] : sweep) {
      RunRow row = run_config(substrate, w, b, commands, budget);
      all_ok = all_ok && row.ok;
      if (substrate == runtime::Backend::kThreads) {
        if (w == 1 && b == 1) w1b1_threads = row.cps.median;
        if (w == 4 && b == 4) w4b4_threads = row.cps.median;
      }
      std::printf("%-8s %3u %3u %14.1f %10.1f %4s\n",
                  runtime::backend_name(substrate), w, b, row.cps.median,
                  row.cps.iqr(), row.ok ? "yes" : "NO");
      rows.add(row_json(row));
    }
  }

  const double speedup =
      w1b1_threads > 0 ? w4b4_threads / w1b1_threads : 0;
  std::printf("threads W4B4 / W1B1 speedup: %.2fx\n", speedup);

  benchjson::JsonObject report;
  report.field("experiment", "e17_pipeline")
      .field("protocol", "byzantine")
      .field("n", static_cast<std::uint64_t>(4))
      .field("f", static_cast<std::uint64_t>(1))
      .field("commands", commands)
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("speedup_w4b4_threads", speedup)
      .field("all_committed", all_ok);
  report.raw("rows", rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());

  // The acceptance headline doubles as the exit status so CI and the
  // bench runner catch a pipelining regression.
  return all_ok && speedup >= 2.0 ? 0 : 1;
}
