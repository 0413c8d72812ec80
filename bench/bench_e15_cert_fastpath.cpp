// E15 — certificate fast path: memoized digests + verified-signature cache.
//
// The transformed protocol's dominating cost is re-verifying the same
// signed messages as they reappear inside later certificates (ingress
// check, est witness, entry witness, DECIDE evidence).  This bench builds
// the multi-round message tree a real execution produces — INIT quorum →
// coordinator CURRENT → relays → per-round NEXT votes with entry
// witnesses → DECIDE — and measures repeated verification and encoding
// throughput with the cache on vs off, at n ∈ {4, 7, 10} and round depths
// 1..10.
//
// Run with --benchmark_format=json to get machine-readable output; each
// cached run exports cache_hits / cache_misses / hit_pct counters.
// Acceptance headline: BM_RepeatedCertVerify at n = 7 must be ≥3× faster
// with the cache than without.
//
// `--out FILE` switches to a self-timed summary mode instead of the
// google-benchmark harness: it times the cached and uncached verify pass
// per (n, rounds) configuration over 5 reps (a fresh workload each) and
// writes a compact JSON report (the BENCH_e15.json artifact emitted by
// scripts/run_benches.sh) with each row's median and IQR, `nproc` and the
// build type.  All other flags fall through to google-benchmark as before.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "bench_smr.hpp"

#include "bft/analyzer.hpp"
#include "bft/message.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/rsa64.hpp"
#include "crypto/verify_cache.hpp"

namespace {

using namespace modubft;

enum class Scheme { kHmac, kRsa64 };

struct Workload {
  crypto::SignatureSystem sys;
  std::uint32_t n = 0;
  std::uint32_t q = 0;
  std::uint32_t rounds = 0;
  bft::MemberPtr coord;                            // round-1 CURRENT
  std::vector<bft::MemberPtr> relays;              // q−1 relayed CURRENTs
  std::vector<std::vector<bft::MemberPtr>> votes;  // votes[r]: round-r NEXTs
  bft::SignedMessage decide;
};

bft::SignedMessage sign_msg(const Workload& w, bft::MessageCore core,
                            bft::Certificate cert) {
  bft::SignedMessage msg;
  msg.core = std::move(core);
  msg.cert = std::move(cert);
  msg.sig = w.sys.signers[msg.core.sender.value]->sign(
      bft::signing_bytes(msg.core, msg.cert));
  return msg;
}

/// Wire-format self-check: the arithmetic size and a decode → re-encode
/// round trip must match the canonical encoding byte for byte.  Aborts the
/// bench if the fast path ever drifted from the wire format.
void check_wire_identity(const bft::SignedMessage& msg) {
  const Bytes wire = bft::encode_message(msg);
  if (bft::encoded_size(msg) != wire.size() ||
      bft::encode_message(bft::decode_message(wire)) != wire) {
    std::fprintf(stderr, "wire-format identity violated\n");
    std::abort();
  }
}

Workload make_workload(Scheme scheme, std::uint32_t n, std::uint32_t rounds) {
  Workload w;
  w.n = n;
  w.q = n - (n - 1) / 3;  // quorum n − F for the declared resilience
  w.rounds = rounds;
  w.sys = scheme == Scheme::kRsa64
              ? crypto::Rsa64Scheme{}.make_system(n, 7)
              : crypto::HmacScheme{}.make_system(n, 7);

  // INIT quorum and the matching estimate vector.
  bft::Certificate inits;
  bft::VectorValue vect(n, std::nullopt);
  for (std::uint32_t i = 0; i < w.q; ++i) {
    bft::MessageCore core;
    core.kind = bft::BftKind::kInit;
    core.sender = ProcessId{i};
    core.round = Round{0};
    core.init_value = 100 + i;
    inits.add(sign_msg(w, std::move(core), {}));
    vect[i] = 100 + i;
  }

  // Coordinator CURRENT, then q−1 relays sharing it copy-free.
  {
    bft::MessageCore core;
    core.kind = bft::BftKind::kCurrent;
    core.sender = ProcessId{0};
    core.round = Round{1};
    core.est = vect;
    w.coord = std::make_shared<const bft::SignedMessage>(
        sign_msg(w, std::move(core), std::move(inits)));
  }
  for (std::uint32_t i = 1; i < w.q; ++i) {
    bft::Certificate relay_cert;
    relay_cert.add(w.coord);
    bft::MessageCore core;
    core.kind = bft::BftKind::kCurrent;
    core.sender = ProcessId{i};
    core.round = Round{1};
    core.est = vect;
    w.relays.push_back(std::make_shared<const bft::SignedMessage>(
        sign_msg(w, std::move(core), std::move(relay_cert))));
  }

  // Per-round NEXT votes; round r ≥ 2 carries the round-(r−1) quorum as its
  // entry witness, sharing the vote messages instead of copying them.
  w.votes.resize(rounds + 1);
  for (std::uint32_t r = 1; r <= rounds; ++r) {
    for (std::uint32_t i = 0; i < w.q; ++i) {
      bft::Certificate witness;
      if (r >= 2) {
        for (const bft::MemberPtr& prev : w.votes[r - 1]) witness.add(prev);
      }
      bft::MessageCore core;
      core.kind = bft::BftKind::kNext;
      core.sender = ProcessId{i};
      core.round = Round{r};
      w.votes[r].push_back(std::make_shared<const bft::SignedMessage>(
          sign_msg(w, std::move(core), std::move(witness))));
    }
  }

  // DECIDE evidenced by the CURRENT quorum (coordinator + relays).
  {
    bft::Certificate evidence;
    evidence.add(w.coord);
    for (const bft::MemberPtr& m : w.relays) evidence.add(m);
    bft::MessageCore core;
    core.kind = bft::BftKind::kDecide;
    core.sender = ProcessId{1};
    core.round = Round{1};
    core.est = vect;
    w.decide = sign_msg(w, std::move(core), std::move(evidence));
  }

  check_wire_identity(*w.coord);
  check_wire_identity(*w.votes[rounds].front());
  check_wire_identity(w.decide);
  return w;
}

std::shared_ptr<const crypto::Verifier> pick_verifier(
    const Workload& w, bool cached,
    std::shared_ptr<const crypto::CachingVerifier>* cache_out) {
  if (!cached) return w.sys.verifier;
  auto cache = std::make_shared<const crypto::CachingVerifier>(w.sys.verifier);
  *cache_out = cache;
  return cache;
}

/// One full pass of the verification work a correct process performs on the
/// workload.  Returns the number of analyzer checks that ran (for items/s);
/// verification failures are routed through `fail` (benchmark skip or
/// summary-mode abort).
template <typename FailFn>
std::size_t verify_pass_impl(const bft::CertAnalyzer& analyzer,
                             const Workload& w, FailFn&& fail) {
  std::size_t checks = 0;
  auto expect = [&](const bft::Verdict& v) {
    ++checks;
    if (!v) fail(("unexpected verdict: " + v.detail).c_str());
  };
  auto expect_sig = [&](const bft::SignedMessage& m) {
    ++checks;
    if (!analyzer.signature_ok(m)) fail("bad signature");
  };

  expect_sig(*w.coord);
  expect(analyzer.current_wf(*w.coord));
  for (const bft::MemberPtr& m : w.relays) {
    expect_sig(*m);
    expect(analyzer.current_wf(*m));
  }
  for (std::uint32_t r = 1; r <= w.rounds; ++r) {
    for (const bft::MemberPtr& vote : w.votes[r]) {
      expect_sig(*vote);
      expect(analyzer.entry_wf(vote->cert, Round{r}));
    }
  }
  expect_sig(w.decide);
  expect(analyzer.decide_wf(w.decide));
  return checks;
}

std::size_t verify_pass(const bft::CertAnalyzer& analyzer, const Workload& w,
                        benchmark::State& state) {
  return verify_pass_impl(analyzer, w,
                          [&](const char* why) { state.SkipWithError(why); });
}

void export_cache_counters(
    benchmark::State& state,
    const std::shared_ptr<const crypto::CachingVerifier>& cache) {
  if (!cache) return;
  const crypto::VerifyCacheStats s = cache->stats();
  state.counters["cache_hits"] = static_cast<double>(s.cache_hits);
  state.counters["cache_misses"] = static_cast<double>(s.cache_misses);
  state.counters["hit_pct"] = 100.0 * s.hit_rate();
}

// --------------------------------------------------------------- verify

void repeated_verify(benchmark::State& state, Scheme scheme) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto rounds = static_cast<std::uint32_t>(state.range(1));
  const bool cached = state.range(2) != 0;

  Workload w = make_workload(scheme, n, rounds);
  std::shared_ptr<const crypto::CachingVerifier> cache;
  bft::CertAnalyzer analyzer(w.n, w.q, pick_verifier(w, cached, &cache));

  std::size_t checks = 0;
  for (auto _ : state) {
    checks += verify_pass(analyzer, w, state);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(checks));
  export_cache_counters(state, cache);
}

void BM_RepeatedCertVerify(benchmark::State& state) {
  repeated_verify(state, Scheme::kHmac);
}
BENCHMARK(BM_RepeatedCertVerify)
    ->ArgNames({"n", "rounds", "cache"})
    ->ArgsProduct({{4, 7, 10}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {0, 1}});

void BM_RepeatedCertVerifyRsa64(benchmark::State& state) {
  repeated_verify(state, Scheme::kRsa64);
}
BENCHMARK(BM_RepeatedCertVerifyRsa64)
    ->ArgNames({"n", "rounds", "cache"})
    ->ArgsProduct({{7}, {1, 5, 10}, {0, 1}});

// --------------------------------------------------- decode + verify

void BM_DecodeThenVerify(benchmark::State& state) {
  // The ingress pipeline: decode the wire bytes, then run the analyzer.
  // Decoding allocates fresh Certificates, so per-message digest memos
  // start cold every iteration; only the signature cache persists.
  const auto rounds = static_cast<std::uint32_t>(state.range(0));
  const bool cached = state.range(1) != 0;

  Workload w = make_workload(Scheme::kHmac, 7, rounds);
  std::shared_ptr<const crypto::CachingVerifier> cache;
  bft::CertAnalyzer analyzer(w.n, w.q, pick_verifier(w, cached, &cache));

  const Bytes wire = bft::encode_message(w.decide);
  for (auto _ : state) {
    bft::SignedMessage msg = bft::decode_message(wire);
    if (!analyzer.signature_ok(msg) || !analyzer.decide_wf(msg)) {
      state.SkipWithError("DECIDE failed verification");
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
  export_cache_counters(state, cache);
}
BENCHMARK(BM_DecodeThenVerify)
    ->ArgNames({"rounds", "cache"})
    ->ArgsProduct({{1, 10}, {0, 1}});

// ---------------------------------------------------------------- encode

void BM_EncodeDecide(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto rounds = static_cast<std::uint32_t>(state.range(1));
  Workload w = make_workload(Scheme::kHmac, n, rounds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bft::encode_message(w.decide));
  }
  // encoded_size is arithmetic — no throwaway encode behind this counter.
  state.counters["wire_bytes"] = static_cast<double>(bft::encoded_size(w.decide));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bft::encoded_size(w.decide)));
}
BENCHMARK(BM_EncodeDecide)
    ->ArgNames({"n", "rounds"})
    ->ArgsProduct({{4, 7, 10}, {1, 10}});

// ------------------------------------------------- summary mode (--out)

constexpr int kReps = 5;

struct SummaryRow {
  std::uint32_t n = 0;
  std::uint32_t rounds = 0;
  std::vector<double> rep_uncached;  // checks per second, per rep
  std::vector<double> rep_cached;
  std::vector<double> rep_speedup;   // cached / uncached within each rep
  crypto::VerifyCacheStats cache;    // the last rep's cached pass
};

/// Times repeated verify passes: at least `min_iters` passes and at least
/// `min_time`, whichever is longer.  Returns checks per second.
double time_passes(const bft::CertAnalyzer& analyzer, const Workload& w) {
  constexpr int kMinIters = 20;
  constexpr std::chrono::milliseconds kMinTime{200};
  const auto fail = [](const char* why) {
    std::fprintf(stderr, "verification failed: %s\n", why);
    std::abort();
  };
  // Warm-up pass (populates the cache in the cached configuration — the
  // steady state the fast path is about).
  verify_pass_impl(analyzer, w, fail);

  std::size_t checks = 0;
  int iters = 0;
  const auto start = std::chrono::steady_clock::now();
  while (iters < kMinIters ||
         std::chrono::steady_clock::now() - start < kMinTime) {
    checks += verify_pass_impl(analyzer, w, fail);
    ++iters;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(checks) / secs;
}

SummaryRow run_summary(std::uint32_t n, std::uint32_t rounds) {
  SummaryRow row;
  row.n = n;
  row.rounds = rounds;
  for (int rep = 0; rep < kReps; ++rep) {
    // A fresh workload per rep: no message carries a digest memoized by an
    // earlier rep.
    Workload w = make_workload(Scheme::kHmac, n, rounds);
    double uncached = 0;
    {
      bft::CertAnalyzer analyzer(w.n, w.q, w.sys.verifier);
      uncached = time_passes(analyzer, w);
    }
    auto cache =
        std::make_shared<const crypto::CachingVerifier>(w.sys.verifier);
    bft::CertAnalyzer analyzer(w.n, w.q, cache);
    const double cached = time_passes(analyzer, w);
    row.rep_uncached.push_back(uncached);
    row.rep_cached.push_back(cached);
    row.rep_speedup.push_back(uncached > 0 ? cached / uncached : 0);
    row.cache = cache->stats();
  }
  return row;
}

/// Adds `key` (the median), `key_q1`, `key_q3`, `key_iqr` and `rep_key`.
void spread_fields(benchjson::JsonObject& o, const std::string& key,
                   const std::vector<double>& reps) {
  const benchsmr::Spread s = benchsmr::spread(reps);
  o.field(key, s.median)
      .field(key + "_q1", s.q1)
      .field(key + "_q3", s.q3)
      .field(key + "_iqr", s.iqr());
  o.raw("rep_" + key, benchsmr::reps_json(reps));
}

int summary_main(const std::string& out) {
  // The witness chain nests the full previous-round quorum, so the
  // encoded tree grows as q^rounds; rounds ≤ 5 keeps every configuration
  // under the 4 MiB decode cap that make_workload's wire-identity check
  // round-trips through.
  const std::vector<std::uint32_t> ns = {4, 7, 10};
  const std::vector<std::uint32_t> round_counts = {1, 3, 5};

  std::printf("E15: certificate fast path, cached vs uncached verify, "
              "median of %d reps\n",
              kReps);
  std::printf("%3s %7s %18s %18s %8s %8s\n", "n", "rounds", "uncached chk/s",
              "cached chk/s", "speedup", "IQR");

  benchjson::JsonArray rows;
  double headline = 0;  // n = 7, rounds = 5 (deepest witness chain)
  for (std::uint32_t n : ns) {
    for (std::uint32_t rounds : round_counts) {
      const SummaryRow row = run_summary(n, rounds);
      const benchsmr::Spread speedup = benchsmr::spread(row.rep_speedup);
      if (n == 7 && rounds == 5) headline = speedup.median;
      std::printf("%3u %7u %18.0f %18.0f %7.2fx %7.2fx\n", n, rounds,
                  benchsmr::spread(row.rep_uncached).median,
                  benchsmr::spread(row.rep_cached).median, speedup.median,
                  speedup.iqr());
      benchjson::JsonObject o;
      o.field("n", static_cast<std::uint64_t>(row.n))
          .field("rounds", static_cast<std::uint64_t>(row.rounds));
      spread_fields(o, "checks_per_sec_uncached", row.rep_uncached);
      spread_fields(o, "checks_per_sec_cached", row.rep_cached);
      spread_fields(o, "speedup", row.rep_speedup);
      o.field("cache_hits", row.cache.cache_hits)
          .field("cache_misses", row.cache.cache_misses)
          .field("cache_hit_rate", row.cache.hit_rate());
      rows.add(o.str());
    }
  }
  std::printf("headline median speedup (n=7, rounds=5): %.2fx\n", headline);

  benchjson::JsonObject report;
  report.field("experiment", "e15_cert_fastpath")
      .field("scheme", "hmac")
      .field("reps", static_cast<std::uint64_t>(kReps))
      .field("nproc",
             static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("build_type", MODUBFT_BUILD_TYPE)
      .field("speedup_n7_rounds5", headline);
  report.raw("rows", rows.str());
  benchjson::write_file(out, report.str());
  std::printf("wrote %s\n", out.c_str());
  return headline >= 3.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--out FILE` = self-timed JSON summary; anything else falls through to
  // the google-benchmark harness (keeps perf_smoke_cert_fastpath intact).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out needs a value\n");
        return 2;
      }
      return summary_main(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
