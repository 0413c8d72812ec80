// E18 — checkpointing overhead and crash-recovery state transfer.
//
// Two questions, one report (BENCH_e18.json, see EXPERIMENTS.md):
//
//  1. What does certified checkpointing cost?  Commit throughput of the
//     pipelined Byzantine SMR cluster with checkpoints off (interval 0 —
//     wire format byte-identical to a pre-recovery build) vs on
//     (interval 8): same workload, same seeds, sim + threads.  The
//     checkpoint path adds one snapshot, one digest and one signed vote
//     broadcast every C slots — amortized noise, which the acceptance
//     headline pins: checkpointing must retain ≥ 60% of the baseline
//     commits/sec on every substrate measured.
//
//  2. How fast does a killed replica rejoin?  One replica is killed
//     mid-run and restarted later; the report records the worst
//     request-to-rejoin time (PipelineSummary::recovery_us) and the log
//     compaction ceiling.  Acceptance: the victim rejoins via verified
//     state transfer on every substrate, and the committed-slot log never
//     exceeds C+W slots.
//
// Each wall-clock row runs kReps reps and records the median and the
// interquartile range; the simulator is deterministic and runs once.  The
// report records nproc and the build type next to the rows.
//
// Usage: bench_e18_recovery [--out FILE] [--commands N] [--budget-ms MS]
#include <algorithm>
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

constexpr std::uint64_t kInterval = 8;
constexpr std::uint32_t kWindow = 4;
constexpr std::uint32_t kBatch = 2;
constexpr int kReps = 5;  // per wall-clock row

faults::SmrScenarioConfig base_config(runtime::Backend substrate,
                                      std::uint64_t interval,
                                      std::uint64_t commands,
                                      std::uint64_t seed,
                                      std::chrono::milliseconds budget) {
  faults::SmrScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.substrate = substrate;
  cfg.backend = smr::Backend::kByzantine;
  cfg.workload = faults::kv_workload(commands);
  cfg.window = kWindow;
  cfg.batch = kBatch;
  cfg.budget = budget;
  cfg.checkpoint_interval = interval;
  return cfg;
}

// ------------------------------------------------- 1. checkpoint overhead

struct OverheadRow {
  runtime::Backend substrate;
  std::uint64_t interval = 0;
  benchsmr::Spread cps;  // over reps
  std::vector<double> rep_cps;
  bool ok = true;
  faults::SmrScenarioResult last;
};

OverheadRow run_overhead(runtime::Backend substrate, std::uint64_t interval,
                         std::uint64_t commands,
                         std::chrono::milliseconds budget) {
  OverheadRow row;
  row.substrate = substrate;
  row.interval = interval;
  for (int rep = 0; rep < benchsmr::reps_on(substrate, kReps); ++rep) {
    faults::SmrScenarioConfig cfg =
        base_config(substrate, interval, commands,
                    18 + static_cast<std::uint64_t>(rep), budget);
    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    if (!r.all_committed || !r.stores_agree) row.ok = false;
    // Compaction ceiling: with checkpoints on, the committed-slot log is
    // bounded by C+W; with them off it grows with the whole run.
    if (interval > 0 &&
        r.run_stats.pipeline.log_peak > interval + kWindow) {
      row.ok = false;
    }
    row.rep_cps.push_back(benchsmr::commits_per_sec(substrate, r));
    row.last = std::move(r);
  }
  row.cps = benchsmr::spread(row.rep_cps);
  return row;
}

// ------------------------------------------------ 2. kill/restart rejoin

struct RecoveryRow {
  runtime::Backend substrate;
  bool recovered = true;  // in every rep
  bool ok = true;
  benchsmr::Spread rejoin_us;  // worst request-to-rejoin, over reps
  std::vector<double> rep_rejoin_us;
  std::uint64_t log_peak = 0;  // over reps
  faults::SmrScenarioResult last;
};

RecoveryRow run_recovery(runtime::Backend substrate, std::uint64_t commands,
                         std::chrono::milliseconds budget) {
  RecoveryRow row;
  row.substrate = substrate;
  const SimTime kill = substrate == runtime::Backend::kSim ? 1'500
                       : substrate == runtime::Backend::kTcp ? 5'000
                                                             : 3'000;
  const SimTime back = substrate == runtime::Backend::kSim ? 3'000
                       : substrate == runtime::Backend::kTcp ? 80'000
                                                             : 60'000;
  for (int rep = 0; rep < benchsmr::reps_on(substrate, kReps); ++rep) {
    faults::SmrScenarioConfig cfg =
        base_config(substrate, kInterval, commands,
                    18 + static_cast<std::uint64_t>(rep), budget);
    cfg.crashes.push_back({ProcessId{2}, kill, back});
    faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
    const bool recovered = r.recovered.count(2) > 0;
    row.recovered = row.recovered && recovered;
    row.ok = row.ok && r.clean && r.all_committed && r.stores_agree &&
             recovered;
    row.rep_rejoin_us.push_back(
        static_cast<double>(r.run_stats.pipeline.recovery_us));
    row.log_peak = std::max(row.log_peak, r.run_stats.pipeline.log_peak);
    row.last = std::move(r);
  }
  row.rejoin_us = benchsmr::spread(row.rep_rejoin_us);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_e18.json";
  std::uint64_t commands = 200;
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

  const std::vector<runtime::Backend> substrates = {
      runtime::Backend::kSim, runtime::Backend::kThreads};

  std::printf("E18: certified checkpoints + recovery, byz n=4 f=1, "
              "%llu commands, C=%llu W=%u B=%u\n",
              static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(kInterval), kWindow, kBatch);

  // --- checkpoint overhead ---
  std::printf("%-8s %9s %14s %10s %9s %4s\n", "substrate", "interval",
              "commits/sec", "iqr", "retained", "ok");
  benchjson::JsonArray overhead_rows;
  bool all_ok = true;
  double worst_retained = 1.0;
  for (runtime::Backend substrate : substrates) {
    double baseline = 0;
    for (std::uint64_t interval : {std::uint64_t{0}, kInterval}) {
      OverheadRow row =
          run_overhead(substrate, interval, commands, budget);
      all_ok = all_ok && row.ok;
      double retained = 1.0;
      if (interval == 0) {
        baseline = row.cps.median;
      } else if (baseline > 0) {
        retained = row.cps.median / baseline;
        worst_retained = std::min(worst_retained, retained);
      }
      std::printf("%-8s %9llu %14.1f %10.1f %8.2f%% %4s\n",
                  runtime::backend_name(substrate),
                  static_cast<unsigned long long>(interval), row.cps.median,
                  row.cps.iqr(), retained * 100.0, row.ok ? "yes" : "NO");
      benchjson::JsonObject o;
      o.field("substrate", runtime::backend_name(row.substrate))
          .field("checkpoint_interval", row.interval)
          .field("commits_per_sec", row.cps.median)
          .field("commits_per_sec_q1", row.cps.q1)
          .field("commits_per_sec_q3", row.cps.q3)
          .field("commits_per_sec_iqr", row.cps.iqr())
          .field("retained_vs_baseline", retained)
          .field("ok", row.ok);
      o.raw("rep_commits_per_sec", benchsmr::reps_json(row.rep_cps));
      o.field("rate_basis", benchsmr::time_basis(row.substrate));
      o.raw("run_stats",
            runtime::to_json(row.substrate, row.last.run_stats));
      overhead_rows.add(o.str());
    }
  }

  // --- kill/restart rejoin ---
  std::printf("%-8s %12s %10s %9s %4s\n", "substrate", "rejoin_us", "iqr",
              "log_peak", "ok");
  benchjson::JsonArray recovery_rows;
  bool all_recovered = true;
  for (runtime::Backend substrate : substrates) {
    RecoveryRow row = run_recovery(substrate, commands, budget);
    all_ok = all_ok && row.ok;
    all_recovered = all_recovered && row.recovered;
    std::printf("%-8s %12.0f %10.1f %9llu %4s\n",
                runtime::backend_name(substrate), row.rejoin_us.median,
                row.rejoin_us.iqr(),
                static_cast<unsigned long long>(row.log_peak),
                row.ok ? "yes" : "NO");
    benchjson::JsonObject o;
    o.field("substrate", runtime::backend_name(row.substrate))
        .field("recovered", row.recovered)
        .field("rejoin_us", row.rejoin_us.median)
        .field("rejoin_us_q1", row.rejoin_us.q1)
        .field("rejoin_us_q3", row.rejoin_us.q3)
        .field("rejoin_us_iqr", row.rejoin_us.iqr())
        .field("log_peak", row.log_peak)
        .field("ok", row.ok);
    o.raw("rep_rejoin_us", benchsmr::reps_json(row.rep_rejoin_us));
    o.field("time_basis", benchsmr::time_basis(row.substrate));
    o.raw("run_stats",
          runtime::to_json(row.substrate, row.last.run_stats));
    recovery_rows.add(o.str());
  }

  std::printf("worst retained throughput with checkpoints on: %.2f%%\n",
              worst_retained * 100.0);

  benchjson::JsonObject report;
  report.field("experiment", "e18_recovery")
      .field("protocol", "byzantine")
      .field("n", static_cast<std::uint64_t>(4))
      .field("f", static_cast<std::uint64_t>(1))
      .field("commands", commands)
      .field("checkpoint_interval", kInterval)
      .field("window", static_cast<std::uint64_t>(kWindow))
      .field("batch", static_cast<std::uint64_t>(kBatch))
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("worst_retained", worst_retained)
      .field("all_recovered", all_recovered)
      .field("all_ok", all_ok);
  report.raw("overhead_rows", overhead_rows.str());
  report.raw("recovery_rows", recovery_rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());

  // Acceptance headline in the exit status: checkpointing keeps ≥ 60% of
  // baseline throughput everywhere, and every kill/restart rejoins.
  return all_ok && all_recovered && worst_retained >= 0.6 ? 0 : 1;
}
