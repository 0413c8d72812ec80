// Run statistics (runtime::RunStats), deterministic simulator:
//
//  * to_json emits every counter the component structs declare exactly
//    once, with its value;
//  * a Byzantine SMR run with live clients, checkpoints and a kill/restart
//    still carries every key the field-by-field serializer used to emit
//    (the list below is that serializer's output), and two runs of one
//    seed agree on every key but wall_us;
//  * after p0 is killed and restarted, the one-replica tallies come from
//    a replica that ran the whole run, not from p0's second life;
//  * an overloaded run reports the BUSY frames its replicas sent;
//  * the client latency percentiles are nearest-rank.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "common/metrics.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"

namespace modubft {
namespace {

/// Splits runtime::to_json's flat object into key → value text.  A key
/// that appears twice is a test failure.
std::map<std::string, std::string> parse_flat(const std::string& json) {
  std::map<std::string, std::string> out;
  EXPECT_TRUE(json.size() >= 2 && json.front() == '{' && json.back() == '}');
  std::istringstream is(json.substr(1, json.size() - 2));
  std::string pair;
  while (std::getline(is, pair, ',')) {
    const std::size_t colon = pair.find("\":");
    EXPECT_TRUE(pair.front() == '"' && colon != std::string::npos) << pair;
    const std::string key = pair.substr(1, colon - 1);
    EXPECT_TRUE(out.emplace(key, pair.substr(colon + 2)).second)
        << key << " emitted twice";
  }
  return out;
}

/// Sets every counter S declares to the next distinct value and records
/// the expected key.
template <class S>
void fill(S& part, std::uint64_t& next,
          std::map<std::string, std::uint64_t>& want) {
  for (const metrics::Counter<S>& c : S::kCounters) {
    part.*c.field = next;
    EXPECT_TRUE(want.emplace(c.key, next).second)
        << c.key << " declared twice";
    ++next;
  }
}

TEST(RunStats, ToJsonEmitsEveryDeclaredCounterOnce) {
  runtime::RunStats stats;
  std::uint64_t next = 1001;
  std::map<std::string, std::uint64_t> want;
  fill<sim::Stats>(stats.net, next, want);
  fill<transport::ChannelStats>(stats.link, next, want);
  fill<transport::TcpLinkStats>(stats.link, next, want);
  fill<crypto::VerifyCacheStats>(stats.verify, next, want);
  fill<smr::PipelineStats>(stats.pipeline, next, want);
  fill<client::ClientStats>(stats.client, next, want);
  fill<smr::ClientServiceStats>(stats.client, next, want);

  const std::map<std::string, std::string> got =
      parse_flat(runtime::to_json(runtime::Backend::kSim, stats));
  for (const auto& [key, value] : want) {
    ASSERT_EQ(got.count(key), 1u) << key;
    EXPECT_EQ(got.at(key), std::to_string(value)) << key;
  }
  // The counters the field-by-field serializer used to drop.
  for (const char* key :
       {"dial_failures", "truncates_injected", "flips_injected",
        "delays_injected", "gap_resets", "malformed_hellos",
        "degraded_links"}) {
    EXPECT_EQ(want.count(key), 1u) << key;
  }
}

/// Byzantine back-end, 2 closed-loop clients × 8 ops, W4 B2 C4, with
/// `victim` killed at 6 ms and restarted at 9 ms of simulated time.
faults::SmrScenarioConfig live_scenario(std::uint32_t victim) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = 5;
  sc.backend = smr::Backend::kByzantine;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.clients = faults::ClientLoadConfig{};
  sc.crashes.push_back({ProcessId{victim}, 6'000, 9'000});
  return sc;
}

/// Every key the hand-written runtime::to_json emitted before the
/// counters were declared in their component structs, less the verify
/// pool's and the staged ingest's, which went with those two paths.
constexpr const char* kPinnedKeys[] = {
    "backend", "messages_sent", "messages_delivered", "bytes_sent",
    "events_executed", "virtual_time_us", "wall_us", "wire_frames",
    "wire_bytes", "reconnects", "retransmits", "frames_dropped",
    "kills_injected", "checksum_failures", "dup_suppressed", "cache_hits",
    "cache_misses", "cache_evictions", "cache_hit_rate", "window", "batch",
    "slots_committed", "commands_committed", "noop_slots",
    "max_batch", "window_peak", "avg_window", "future_buffered",
    "future_dropped", "stale_dropped", "checkpoints_taken",
    "checkpoint_certs", "log_truncated", "log_peak", "state_reqs",
    "state_resps", "recovery_installs", "recovery_rejects", "recovery_us",
    "client_clients", "client_submitted",
    "client_retries", "client_failovers", "client_busy", "client_replies",
    "client_duplicate_replies", "client_mismatched_replies",
    "client_accepted", "client_p50_us", "client_p99_us", "client_p999_us",
    "client_requests", "client_duplicates", "client_replays",
    "client_admitted", "client_sheds", "client_relays_sent",
    "client_relays_received", "client_relays_dropped", "client_fetches_sent",
    "client_fetches_served", "client_replies_sent", "client_parked_commits",
    "client_rejects", "client_queue_peak", "client_auth_rejects",
    "client_ineligible_skips", "client_origin_drops",
    "client_bounds_recorded", "client_fetches_answered", "client_bounds_sent",
};

TEST(RunStats, JsonKeepsEveryPinnedKeyAndIsDeterministic) {
  static_assert(std::size(kPinnedKeys) == 71);
  const faults::SmrScenarioConfig sc = live_scenario(3);
  const faults::SmrScenarioResult a = faults::run_smr_scenario(sc);
  const faults::SmrScenarioResult b = faults::run_smr_scenario(sc);
  ASSERT_TRUE(a.clean);
  EXPECT_EQ(a.recovered.count(3), 1u);
  EXPECT_EQ(a.clients_done.size(), 2u);

  std::map<std::string, std::string> ja =
      parse_flat(runtime::to_json(sc.substrate, a.run_stats));
  std::map<std::string, std::string> jb =
      parse_flat(runtime::to_json(sc.substrate, b.run_stats));
  for (const char* key : kPinnedKeys) EXPECT_EQ(ja.count(key), 1u) << key;
  ja.erase("wall_us");
  jb.erase("wall_us");
  EXPECT_EQ(ja, jb);
}

TEST(RunStats, WitnessTalliesSurviveAKillRestartOfP0) {
  const faults::SmrScenarioConfig sc = live_scenario(0);
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  ASSERT_TRUE(r.clean);
  ASSERT_EQ(r.recovered.count(0), 1u);
  const runtime::PipelineSummary& p = r.run_stats.pipeline;
  // The restart installed a certified snapshot, so p0's second life did
  // not commit the whole log itself: the slot and command tallies are the
  // witness's (p1, the lowest correct replica never killed).
  EXPECT_GE(p.recovery_installs, 1u);
  EXPECT_EQ(p.commands_committed, r.commit_log.size());
  EXPECT_EQ(p.slots_committed, r.committed.at(1));
}

TEST(RunStats, ClientPercentilesAreNearestRank) {
  client::ClientStats c;
  for (SimTime us = 1; us <= 10; ++us) c.latencies_us.push_back(us);
  runtime::ClientSummary summary;
  summary.fold({&c});
  // Rank ⌈q·N⌉ of N = 10: 5, 10 and 10.
  EXPECT_EQ(summary.p50_us, 5u);
  EXPECT_EQ(summary.p99_us, 10u);
  EXPECT_EQ(summary.p999_us, 10u);
}

TEST(RunStats, OverloadCountsTheBusyFramesReplicasSent) {
  faults::SmrScenarioConfig sc = live_scenario(3);
  sc.crashes.clear();
  sc.clients->max_outstanding = 8;
  sc.clients->ops_per_client = 12;
  sc.clients->max_pending = 2;  // tiny admission bound: shedding guaranteed
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  ASSERT_TRUE(r.clean);
  const std::map<std::string, std::string> json =
      parse_flat(runtime::to_json(sc.substrate, r.run_stats));
  const std::uint64_t busy = std::stoull(json.at("client_busy"));
  EXPECT_GT(busy, 0u);
  // Each shed sends one BUSY frame; a client may miss some of them.
  EXPECT_GE(std::stoull(json.at("client_sheds")), busy);
}

}  // namespace
}  // namespace modubft
