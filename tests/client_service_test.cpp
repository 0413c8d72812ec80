// The replica-side client service's admission bounds, driven frame by
// frame through smr::ClientService with a recording context:
//
//  * the per-origin relay cap drops one peer's relays beyond max_pending
//    while another peer's relay is still admitted;
//  * the collective relay cap, n × max_pending queued commands;
//  * a CMD_FETCH for an id above a recorded seq bound is answered with the
//    bound frame itself (the client's signed SEQ_BOUND when
//    authenticating), and without a bound it gets no answer;
//  * with the queue full, a REQUEST for an id the parked frontier is
//    fetching is admitted, not shed;
//  * the reply cache keeps each client's seq_window highest committed
//    seqs: a retry of a cached seq is replayed, an evicted one is only
//    counted as a duplicate, and a seq_window deeper than a snapshot may
//    carry is rejected.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "smr/replica.hpp"

namespace modubft::smr {
namespace {

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kClientA = kN;      // first client id
constexpr std::uint32_t kClientB = kN + 1;  // second client id

/// Replica 0's view of the world: every emitted frame, with its
/// destination (nullopt for a broadcast).
class RecordingContext final : public sim::Context {
 public:
  ProcessId id() const override { return ProcessId{0}; }
  std::uint32_t n() const override { return kN; }
  SimTime now() const override { return 0; }
  void send(ProcessId to, Bytes payload) override {
    out.emplace_back(to, std::move(payload));
  }
  void broadcast(const Bytes& payload) override {
    out.emplace_back(std::nullopt, payload);
  }
  std::uint64_t set_timer(SimTime) override { return ++timers_; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

  std::vector<std::pair<std::optional<ProcessId>, Bytes>> out;

 private:
  std::uint64_t timers_ = 0;
  Rng rng_{0};
};

ReplicaConfig two_clients(std::uint32_t max_pending,
                          std::uint32_t seq_window) {
  ReplicaConfig config;
  config.n = kN;
  config.client.num_clients = 2;
  config.client.max_pending = max_pending;
  config.client.seq_window = seq_window;
  return config;
}

/// Replica 0's client service: two clients, unauthenticated (channels are
/// trusted, so no keys are needed), admission bound `max_pending`.
struct Harness {
  explicit Harness(std::uint32_t max_pending,
                   std::uint32_t seq_window = ClientServiceConfig{}.seq_window)
      : config(two_clients(max_pending, seq_window)) {}

  /// Delivers one complete control frame from `from`.
  ClientService::Next deliver(std::uint32_t from, const Bytes& frame) {
    const auto kind = static_cast<ControlKind>(frame.at(8));
    return service.on_frame(ctx, ProcessId{from}, kind,
                            Bytes(frame.begin() + 9, frame.end()));
  }

  ClientService::Next relay(std::uint32_t peer, std::uint32_t client,
                            std::uint64_t seq) {
    return deliver(peer, encode_control_relay(CmdRelay{
                             client, seq, Command::Op::kPut, "k", "v", {}}));
  }

  ClientService::Next request(std::uint32_t client, std::uint64_t seq) {
    ClientRequest req;
    req.seq = seq;
    req.key = "k";
    req.value = "v";
    return deliver(client, encode_control_request(req));
  }

  ReplicaConfig config;
  CommandTable table;
  ClientService service{config, table, nullptr};
  RecordingContext ctx;
};

TEST(ClientServiceBounds, PerOriginRelayCapDropsOnlyTheFloodersExcess) {
  Harness h(/*max_pending=*/2);
  EXPECT_EQ(h.relay(1, kClientA, 1), ClientService::Next::kResume);
  EXPECT_EQ(h.relay(1, kClientA, 2), ClientService::Next::kResume);
  // Peer 1 is at its own cap: its third body is dropped...
  EXPECT_EQ(h.relay(1, kClientA, 3), ClientService::Next::kNone);
  EXPECT_EQ(h.service.stats().origin_drops, 1u);
  EXPECT_EQ(h.table.body(make_client_cmd_id(kClientA, 3)), nullptr);
  // ...while peer 2's relay is still admitted.
  EXPECT_EQ(h.relay(2, kClientA, 4), ClientService::Next::kResume);
  EXPECT_NE(h.table.body(make_client_cmd_id(kClientA, 4)), nullptr);
  EXPECT_EQ(h.table.pending().size(), 3u);
  EXPECT_EQ(h.service.stats().origin_drops, 1u);
  EXPECT_EQ(h.service.stats().relays_dropped, 0u);
  EXPECT_EQ(h.service.stats().relays_received, 4u);
}

TEST(ClientServiceBounds, CollectiveRelayCapIsNTimesMaxPending) {
  Harness h(/*max_pending=*/2);
  // Two direct admissions, then each peer's full share: 2 + 3 × 2 = 8
  // queued commands, the collective cap n × max_pending.
  EXPECT_EQ(h.request(kClientB, 1), ClientService::Next::kPump);
  EXPECT_EQ(h.request(kClientB, 2), ClientService::Next::kPump);
  std::uint64_t seq = 1;
  for (std::uint32_t peer = 1; peer < kN; ++peer) {
    h.relay(peer, kClientA, seq++);
    h.relay(peer, kClientA, seq++);
  }
  ASSERT_EQ(h.table.pending().size(), kN * 2);
  EXPECT_EQ(h.service.stats().origin_drops, 0u);
  // Any further relayed body is a flood: dropped by the collective cap.
  EXPECT_EQ(h.relay(1, kClientA, seq), ClientService::Next::kNone);
  EXPECT_EQ(h.service.stats().relays_dropped, 1u);
  EXPECT_EQ(h.service.stats().origin_drops, 0u);
  EXPECT_EQ(h.table.pending().size(), kN * 2);
  // A body already held passes the caps: re-relaying it stores nothing.
  EXPECT_EQ(h.relay(2, kClientA, 1), ClientService::Next::kResume);
  EXPECT_EQ(h.service.stats().relays_dropped, 1u);
}

TEST(ClientServiceBounds, FetchAboveASeqBoundIsAnsweredWithTheBoundFrame) {
  Harness h(/*max_pending=*/2);
  const Bytes fetch =
      encode_control_fetch({make_client_cmd_id(kClientA, 9)});
  // No body and no bound: nothing to serve.
  h.deliver(1, fetch);
  EXPECT_TRUE(h.ctx.out.empty());
  EXPECT_EQ(h.service.stats().fetches_served, 0u);

  SeqBound sb;
  sb.client = kClientA;
  sb.bound = 5;
  const Bytes bound_frame = encode_control_seq_bound(sb);
  EXPECT_EQ(h.deliver(kClientA, bound_frame), ClientService::Next::kResume);
  EXPECT_EQ(h.service.stats().bounds_recorded, 1u);

  // The bound refutes seq 9: the fetcher gets the bound frame.
  h.deliver(1, fetch);
  ASSERT_EQ(h.ctx.out.size(), 1u);
  ASSERT_TRUE(h.ctx.out[0].first.has_value());
  EXPECT_EQ(h.ctx.out[0].first->value, 1u);
  EXPECT_EQ(h.ctx.out[0].second, bound_frame);
  EXPECT_EQ(h.service.stats().fetches_served, 1u);
  // Seq 3 sits within the bound: still nothing to serve.
  h.deliver(1, encode_control_fetch({make_client_cmd_id(kClientA, 3)}));
  EXPECT_EQ(h.ctx.out.size(), 1u);
  EXPECT_EQ(h.service.stats().fetches_served, 1u);
}

TEST(ClientServiceBounds, FullQueueAdmitsTheBodyTheFrontierIsFetching) {
  Harness h(/*max_pending=*/2);
  const std::uint64_t wanted = make_client_cmd_id(kClientA, 1);
  // The frontier decided `wanted` without its body: it parks and fetches.
  EXPECT_FALSE(h.service.commit_batch(h.ctx, {wanted}).has_value());
  EXPECT_EQ(h.service.stats().parked_commits, 1u);
  EXPECT_EQ(h.service.stats().fetches_sent, 1u);

  EXPECT_EQ(h.request(kClientB, 1), ClientService::Next::kPump);
  EXPECT_EQ(h.request(kClientB, 2), ClientService::Next::kPump);
  // The queue is full: another client's REQUEST is shed with BUSY...
  EXPECT_EQ(h.request(kClientB, 3), ClientService::Next::kNone);
  EXPECT_EQ(h.service.stats().sheds, 1u);
  // ...but the body progress depends on is admitted.
  EXPECT_EQ(h.request(kClientA, 1), ClientService::Next::kPump);
  EXPECT_EQ(h.service.stats().sheds, 1u);
  EXPECT_EQ(h.service.stats().admitted, 3u);
  const auto batch = h.service.commit_batch(h.ctx, {wanted});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(*batch, std::vector<std::uint64_t>{wanted});
}

TEST(ClientServiceReplies, CacheKeepsTheSeqWindowHighestCommittedSeqs) {
  Harness h(/*max_pending=*/2, /*seq_window=*/3);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_EQ(h.request(kClientA, seq), ClientService::Next::kPump);
    const Command* cmd = h.table.commit(make_client_cmd_id(kClientA, seq));
    ASSERT_NE(cmd, nullptr);
    h.service.reply(h.ctx, seq, *cmd);
  }
  EXPECT_EQ(h.service.stats().replies_sent, 5u);
  const std::map<std::uint64_t, Bytes>& cache =
      h.service.replies().at(kClientA);
  std::vector<std::uint64_t> cached;
  for (const auto& [seq, frame] : cache) cached.push_back(seq);
  EXPECT_EQ(cached, (std::vector<std::uint64_t>{3, 4, 5}));

  // A retry of seq 5 is answered from the cache...
  h.ctx.out.clear();
  EXPECT_EQ(h.request(kClientA, 5), ClientService::Next::kNone);
  ASSERT_EQ(h.ctx.out.size(), 1u);
  ASSERT_TRUE(h.ctx.out[0].first.has_value());
  EXPECT_EQ(h.ctx.out[0].first->value, kClientA);
  EXPECT_EQ(h.ctx.out[0].second, cache.at(5));
  EXPECT_EQ(h.service.stats().replays, 1u);
  // ...while evicted seq 2 is a duplicate that gets no answer.
  EXPECT_EQ(h.request(kClientA, 2), ClientService::Next::kNone);
  EXPECT_EQ(h.ctx.out.size(), 1u);
  EXPECT_EQ(h.service.stats().duplicates, 2u);
  EXPECT_EQ(h.service.stats().replays, 1u);
}

TEST(ClientServiceReplies, SeqWindowMustFitTheSnapshotDecoder) {
  // Every replica must decode every snapshot, so the cache a seq_window
  // sizes cannot exceed the decoder's per-client reply cap.
  CommandTable table;
  ReplicaConfig config =
      two_clients(/*max_pending=*/2, StateLimits{}.max_cached_replies);
  EXPECT_NO_THROW((ClientService{config, table, nullptr}));
  config.client.seq_window = StateLimits{}.max_cached_replies + 1;
  EXPECT_THROW((ClientService{config, table, nullptr}), ContractViolation);
}

}  // namespace
}  // namespace modubft::smr
