// perfbench: one workload, one seed, one line of JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit SHA]
//
// Every run first does one untimed warm-up repetition, then repeats the
// workload's scenario (faults::run_smr_scenario with live clients) until
// S seconds of repetitions have passed, and gates every repetition on
// correctness (workloads.hpp).
//
// --trace 0 reports the end-to-end metrics as medians over repetitions.
// --trace 1 alternates untraced and traced repetitions of the same seed
// and reports the per-layer metrics from the traced ones, plus the
// tracing overhead; on the simulator it also checks that tracing left the
// run's traffic unchanged.
//
// The last line of stdout is {"correct", "attempted", "failed",
// "metrics"}; the line before it records provenance and sample counts.
// A run that fails the gate reports correct=false with no metrics and
// exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

namespace mb = modubft;
using perfbench::Clock;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<mb::SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// What one repetition of the workload's scenario leaves behind.  The
/// scenario result itself is dropped, so the process's peak memory does
/// not grow with the number of repetitions.
struct Rep {
  perfbench::Verdict verdict;
  mb::runtime::RunStats stats;
  double setup_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
  // Client latency on the substrate clock (µs).
  std::uint64_t samples = 0;
  double p50_us = 0, p99_us = 0, max_us = 0;
  // Slots committed by the commit-log witness, and how many carried none
  // of the logged commands.
  std::uint64_t witness_slots = 0;
  std::uint64_t noop_slots = 0;
  std::uint64_t clients_done = 0;

  double wall_s() const { return static_cast<double>(stats.wall_us) * 1e-6; }
  double throughput() const {
    const double s = wall_s();
    return s > 0 ? static_cast<double>(ops) / s : 0;
  }
};

Rep run_rep(const Workload& w, std::uint64_t seed, perfbench::Probe& probe) {
  const mb::faults::SmrScenarioConfig cfg =
      perfbench::make_config(w, seed, probe);
  Rep rep;
  const double cpu0 = cpu_seconds();
  probe.arm();
  const mb::faults::SmrScenarioResult result =
      mb::faults::run_smr_scenario(cfg);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.setup_s = probe.setup_s();
  rep.verdict = perfbench::check(w, result);
  rep.stats = result.run_stats;
  rep.ops = result.run_stats.client.accepted;
  rep.clients_done = result.clients_done.size();

  std::vector<mb::SimTime> latencies;
  for (const auto& [pid, stats] : result.client_stats) {
    latencies.insert(latencies.end(), stats.latencies_us.begin(),
                     stats.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  rep.samples = latencies.size();
  rep.p50_us = percentile(latencies, 0.50);
  rep.p99_us = percentile(latencies, 0.99);
  rep.max_us = latencies.empty() ? 0 : static_cast<double>(latencies.back());

  // The witness is the lowest never-killed replica.  RunStats takes its
  // slot tallies from the lowest correct replica instead, which on
  // crash-restart-sim is the restarted one.
  const std::uint32_t witness = w.kill_at > 0 ? 1 : 0;
  std::set<std::uint64_t> used;
  for (const auto& [id, entry] : result.commit_log) used.insert(entry.first);
  auto committed = result.committed.find(witness);
  if (committed != result.committed.end()) {
    rep.witness_slots = committed->second;
    rep.noop_slots = rep.witness_slots - std::min<std::uint64_t>(
                                             rep.witness_slots, used.size());
  }

  std::fprintf(stderr,
               "perfbench: %s seed %llu%s: %.1f ops/s, wall %.3f s, "
               "cpu %.3f s, setup %.6f s, sim end %.1f ms\n",
               w.name, static_cast<unsigned long long>(seed),
               probe.traced() ? " traced" : "", rep.throughput(), rep.wall_s(),
               rep.cpu_s, rep.setup_s,
               static_cast<double>(rep.stats.virtual_time) / 1e3);
  return rep;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

/// Metrics in emission order, each with its unit and sample count.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::uint64_t samples) {
    rows_.push_back({name, value, unit, samples});
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << (i ? "," : "") << '"' << r.name << "\":{\"value\":"
         << (std::isfinite(r.value) ? r.value : 0.0) << ",\"unit\":\""
         << r.unit << "\"}";
    }
    os << '}';
    return os.str();
  }

  std::string samples_json() const {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i ? "," : "") << '"' << rows_[i].name
         << "\":" << rows_[i].samples;
    }
    os << '}';
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::uint64_t samples;
  };
  std::vector<Row> rows_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void note(const Rep& rep) {
    attempted += rep.verdict.attempted;
    failed += rep.verdict.failed;
    for (const std::string& p : rep.verdict.problems) problems.push_back(p);
  }
};

std::string provenance(const Workload& w, const Args& a, std::size_t reps,
                       const Metrics& m) {
  std::ostringstream os;
  os << "{\"provenance\":{\"workload\":\"" << w.name << "\",\"seed\":"
     << a.seed << ",\"seconds\":" << a.seconds
     << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"nproc\":"
     << sysconf(_SC_NPROCESSORS_ONLN) << ",\"build_type\":\""
     << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"commit\":\"" << a.commit << "\",\"substrate\":\""
     << mb::runtime::backend_name(w.substrate) << "\",\"backend\":\""
     << (w.backend == mb::smr::Backend::kByzantine ? "byzantine"
                                                    : "crash-hr")
     << "\",\"n\":" << perfbench::kReplicas << ",\"f\":" << perfbench::kFaulty
     << ",\"ops\":" << w.total_ops() << ",\"clients\":" << w.clients
     << ",\"in_flight_per_client\":" << w.in_flight
     << ",\"window\":" << perfbench::kWindow
     << ",\"batch\":" << perfbench::kBatch
     << ",\"checkpoint_interval\":" << perfbench::kCheckpointInterval
     << ",\"slots\":" << w.slots()
     << ",\"faults\":\"";
  if (w.kill_at > 0) {
    os << "kill replica 0 at " << w.kill_at << " us, restart at "
       << w.restart_at << " us";
  } else {
    os << "none";
  }
  os << "\",\"repetitions\":" << reps << "},\"samples\":" << m.samples_json()
     << '}';
  return os.str();
}

void emit(const Tally& t, const Metrics* m) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              m != nullptr ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed),
              m != nullptr ? m->json().c_str() : "{}");
  std::fflush(stdout);
}

int fail(const Tally& t) {
  for (const std::string& p : t.problems) {
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", p.c_str());
  }
  const double share = t.attempted == 0 ? 1.0
                                        : static_cast<double>(t.failed) /
                                              static_cast<double>(t.attempted);
  std::fprintf(stderr, "perfbench: failed-op share %.6f (%llu of %llu)\n",
               share, static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.attempted));
  emit(t, nullptr);
  return 1;
}

// ------------------------------------------------------------ end to end

Metrics end_to_end(const Workload& w, const std::vector<Rep>& reps) {
  std::vector<double> thr, p50, p99, wait, bytes, setup;
  std::uint64_t lat_samples = 0;
  for (const Rep& r : reps) {
    thr.push_back(r.throughput());
    p50.push_back(r.p50_us / 1000.0);
    p99.push_back(r.p99_us / 1000.0);
    wait.push_back(r.max_us / 1000.0);
    bytes.push_back(static_cast<double>(r.stats.net.bytes_sent) /
                    static_cast<double>(r.ops));
    setup.push_back(r.setup_s);
    lat_samples += r.samples;
  }
  const std::uint64_t n = reps.size();
  Metrics m;
  m.add("throughput_ops_s", median(thr), "ops/s", n);
  // Client latency is named after the clock it is read on, so a simulated
  // and a wall-clock latency never share a metric.
  if (w.simulated()) {
    m.add("sim_latency_p50_ms", median(p50), "sim_ms", lat_samples);
    m.add("sim_latency_p99_ms", median(p99), "sim_ms", lat_samples);
    m.add("sim_outage_ms", median(wait), "sim_ms", n);
  } else {
    m.add("latency_p50_ms", median(p50), "ms", lat_samples);
    m.add("latency_p99_ms", median(p99), "ms", lat_samples);
  }
  m.add("bytes_per_op", median(bytes), "bytes", n);
  m.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  m.add("setup_s", median(setup), "s", n);
  return m;
}

// ------------------------------------------------------------- per layer

struct Pair {
  Rep plain;
  Rep traced;
  std::deque<perfbench::ReplicaTally> lives;
};

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Median over replica lives of (self time per REPLY over the last quarter
/// of the life's REPLY frames) / (the same over the first quarter).
double cost_growth(const std::vector<Pair>& pairs) {
  std::vector<double> growth;
  for (const Pair& p : pairs) {
    for (const perfbench::ReplicaTally& t : p.lives) {
      const std::vector<std::uint64_t>& m = t.reply_marks;
      const std::size_t q = m.size() / 4;
      if (q < 2) continue;
      const double first = static_cast<double>(m[q] - m[0]);
      const double last =
          static_cast<double>(m[m.size() - 1] - m[m.size() - 1 - q]);
      if (first > 0) growth.push_back(last / first);
    }
  }
  return median(growth);
}

/// Tracing must not change the run: on the simulator the traced and
/// untraced repetitions of one seed produce identical traffic, and the
/// traced frame tallies cover every message the substrate counted.
std::vector<std::string> fidelity(const Workload& w, const Pair& p) {
  std::vector<std::string> problems;
  const mb::sim::Stats& a = p.plain.stats.net;
  const mb::sim::Stats& b = p.traced.stats.net;
  const mb::runtime::IngestSummary& ing = p.traced.stats.ingest;
  if (!w.simulated()) {
    if (ing.prologue_frames == 0) {
      problems.push_back("traced run ran no staged prologue frames");
    }
    return problems;
  }
  if (a.messages_sent != b.messages_sent || a.bytes_sent != b.bytes_sent ||
      a.messages_delivered != b.messages_delivered ||
      a.events_executed != b.events_executed) {
    problems.push_back("tracing changed the simulated run's traffic");
  }
  std::uint64_t replica_msgs = 0;
  for (const perfbench::ReplicaTally& t : p.lives) {
    for (std::size_t k = 0; k < perfbench::kKinds; ++k) {
      replica_msgs += t.sent_msgs[k];
    }
    if (t.sent_msgs[perfbench::kUnknownKind] != 0) {
      problems.push_back("a replica sent a frame with no SMR tag");
    }
  }
  // Clients are not wrapped; their sends follow from their own counters.
  const mb::runtime::ClientSummary& cs = p.traced.stats.client;
  const std::uint64_t processes = perfbench::kReplicas + w.clients;
  const std::uint64_t client_msgs =
      cs.submitted + cs.retries + cs.fetches_answered + cs.bounds_sent +
      processes * p.traced.clients_done;
  if (replica_msgs + client_msgs != b.messages_sent) {
    problems.push_back("traced frame tallies miss messages the simulator sent");
  }
  return problems;
}

Metrics per_layer(const Workload& w, const std::vector<Pair>& pairs) {
  using perfbench::kKinds;
  std::uint64_t ops = 0;
  double wall_ns = 0, cpu_plain_s = 0;
  std::array<double, perfbench::kCategories> self{};
  double send_ns = 0, frames_in = 0, dispatches = 0;
  std::array<double, kKinds> kind_msgs{}, kind_bytes{};
  double msgs = 0, bytes = 0, events = 0;
  double slots = 0, noops = 0, window = 0, recovery_us = 0;
  double misses = 0, hits = 0, pool_jobs = 0, pool_dispatched = 0;
  double retries = 0, failovers = 0;
  std::vector<double> thr_plain, thr_traced;
  for (const Pair& p : pairs) {
    const mb::runtime::RunStats& rs = p.traced.stats;
    ops += p.traced.ops;
    wall_ns += static_cast<double>(rs.wall_us) * 1e3;
    cpu_plain_s += p.plain.cpu_s;
    thr_plain.push_back(p.plain.throughput());
    thr_traced.push_back(p.traced.throughput());
    for (const perfbench::ReplicaTally& t : p.lives) {
      for (std::size_t c = 0; c < perfbench::kCategories; ++c) {
        self[c] += static_cast<double>(t.self_ns[c]);
      }
      send_ns += static_cast<double>(t.send_ns);
      frames_in += static_cast<double>(t.frames_in);
      dispatches += static_cast<double>(t.dispatches);
      for (std::size_t k = 0; k < kKinds; ++k) {
        kind_msgs[k] += static_cast<double>(t.sent_msgs[k] + t.client_msgs[k]);
        kind_bytes[k] +=
            static_cast<double>(t.sent_bytes[k] + t.client_bytes[k]);
      }
    }
    msgs += static_cast<double>(rs.net.messages_sent);
    bytes += static_cast<double>(rs.net.bytes_sent);
    events += static_cast<double>(rs.net.events_executed);
    slots += static_cast<double>(p.traced.witness_slots);
    noops += static_cast<double>(p.traced.noop_slots);
    window += rs.pipeline.avg_window;
    recovery_us += static_cast<double>(rs.pipeline.recovery_us);
    misses += static_cast<double>(rs.verify.cache_misses);
    hits += static_cast<double>(rs.verify.cache_hits);
    pool_jobs += static_cast<double>(rs.verify.pool_jobs);
    pool_dispatched += static_cast<double>(rs.verify.pool_dispatched);
    retries += static_cast<double>(rs.client.retries);
    failovers += static_cast<double>(rs.client.failovers);
  }
  const double n = static_cast<double>(pairs.size());
  const double per_op = 1.0 / static_cast<double>(ops);
  const double us_per_op = per_op * 1e-3;  // ns totals → µs per op
  double self_total = 0;
  for (double s : self) self_total += s;
  const bool byz = w.backend == mb::smr::Backend::kByzantine;
  // Share of the replica threads' wall time outside timed calls: the
  // simulator runs every replica on one thread, threads gives each its own.
  const double covered = wall_ns * (w.simulated() ? 1.0 : perfbench::kReplicas);
  const double plain_thr = median(thr_plain);

  const std::uint64_t reps = pairs.size();
  Metrics m;
  m.add("smr.replica_us_per_op", self_total * us_per_op, "us", ops);
  m.add("smr.cost_growth", cost_growth(pairs), "ratio", reps);
  m.add("smr.client_us_per_op", self[perfbench::kClientSvc] * us_per_op,
        "us", ops);
  m.add("smr.checkpoint_us_per_op", self[perfbench::kCheckpoint] * us_per_op,
        "us", ops);
  m.add("smr.timer_us_per_op", self[perfbench::kTimer] * us_per_op, "us",
        ops);
  m.add("smr.noop_slot_frac", ratio(noops, slots), "ratio", reps);
  m.add("smr.window_avg", window / n, "slots", reps);
  m.add("smr.recovery_sim_ms", recovery_us / n / 1000.0, "sim_ms", reps);
  m.add("bft.protocol_us_per_op",
        byz ? self[perfbench::kProtocol] * us_per_op : 0.0, "us", ops);
  m.add("consensus.protocol_us_per_op",
        byz ? 0.0 : self[perfbench::kProtocol] * us_per_op, "us", ops);
  m.add("crypto.verifies_per_op", misses * per_op, "count", ops);
  m.add("crypto.cache_hit_ratio", ratio(hits, hits + misses), "ratio", reps);
  m.add("crypto.pool_offload_frac", ratio(pool_dispatched, pool_jobs),
        "ratio", reps);
  m.add("transport.send_us_per_op", send_ns * us_per_op, "us", ops);
  m.add("transport.batch_avg", ratio(frames_in, dispatches), "frames", reps);
  m.add("transport.msgs_per_op", msgs * per_op, "count", ops);
  m.add("sim.events_per_op", events * per_op, "count", ops);
  m.add("runtime.cpu_ms_per_op", cpu_plain_s * 1e3 * per_op, "ms", ops);
  m.add("runtime.unattributed_frac",
        1.0 - ratio(self_total + send_ns, covered), "ratio", reps);
  m.add("client.retries_per_kop", retries * 1e3 * per_op, "count", ops);
  m.add("client.failovers", failovers / n, "count", reps);
  double seen_msgs = 0, seen_bytes = 0;
  for (std::size_t k = 0; k < perfbench::kUnknownKind; ++k) {
    const std::string prefix = std::string("frames.") + perfbench::kind_name(k);
    m.add(prefix + ".msgs_per_op", kind_msgs[k] * per_op, "count", ops);
    m.add(prefix + ".bytes_per_op", kind_bytes[k] * per_op, "bytes", ops);
    seen_msgs += kind_msgs[k];
    seen_bytes += kind_bytes[k];
  }
  m.add("frames.unseen.msgs_per_op", (msgs - seen_msgs) * per_op, "count",
        ops);
  m.add("frames.unseen.bytes_per_op", (bytes - seen_bytes) * per_op, "bytes",
        ops);
  m.add("trace.overhead_frac",
        ratio(plain_thr - median(thr_traced), plain_thr), "ratio", reps);
  return m;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) return false;
    } else if (std::strcmp(flag, "--commit") == 0) {
      a.commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA]\n");
    return 2;
  }
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const Workload& k : perfbench::workloads()) {
      std::fprintf(stderr, " %s", k.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  perfbench::Probe plain(false, perfbench::kReplicas);
  Tally tally;

  // Warm-up: same process, same seed, untimed (the first repetition in a
  // process runs measurably slower).
  {
    Rep warm = run_rep(*w, args.seed, plain);
    if (!warm.verdict.ok()) {
      tally.note(warm);
      return fail(tally);
    }
  }

  const Clock::time_point t0 = Clock::now();
  Metrics metrics;
  std::size_t reps = 0;
  if (!args.trace) {
    std::vector<Rep> timed;
    while (timed.empty() || seconds_since(t0) < args.seconds) {
      timed.push_back(run_rep(*w, args.seed, plain));
      tally.note(timed.back());
      if (!timed.back().verdict.ok()) return fail(tally);
    }
    metrics = end_to_end(*w, timed);
    reps = timed.size();
  } else {
    std::vector<Pair> pairs;
    while (pairs.empty() || seconds_since(t0) < args.seconds) {
      perfbench::Probe probe(true, perfbench::kReplicas);
      Pair p;
      p.plain = run_rep(*w, args.seed, plain);
      p.traced = run_rep(*w, args.seed, probe);
      p.lives = probe.lives();
      tally.note(p.plain);
      tally.note(p.traced);
      if (!p.plain.verdict.ok() || !p.traced.verdict.ok()) return fail(tally);
      tally.problems = fidelity(*w, p);
      if (!tally.problems.empty()) return fail(tally);
      pairs.push_back(std::move(p));
    }
    metrics = per_layer(*w, pairs);
    reps = pairs.size();
  }

  std::printf("%s\n", provenance(*w, args, reps, metrics).c_str());
  emit(tally, &metrics);
  return 0;
}
