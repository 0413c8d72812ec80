// Fault-tolerant client/service layer (ISSUE 9), deterministic simulator:
//
//  * control-frame codec round trips for the REQUEST/REPLY/BUSY/RELAY/
//    FETCH/SEQ_BOUND family and the client-command id packing;
//  * a finished client's last broadcast is a SEQ_BOUND carrying its script
//    length, and a replica rejects a frame of the unassigned kind 9;
//  * a client keeps max_outstanding ops in flight: that many REQUESTs on
//    start, one more per certification, and no timer but retry timers;
//  * snapshot client-table section: round trip, and byte-identity with
//    the pre-client encoding when no client has ever been admitted;
//  * end-to-end closed-loop runs on both backends with the exactly-once
//    audit (every accepted reply matches the committed log);
//  * duplicate suppression: aggressive client retries produce replica-side
//    duplicate hits and reply replays, never a double execution;
//  * overload protection: a tiny admission bound sheds with BUSY and the
//    queue peak respects the bound, while every operation still settles;
//  * failover: a client whose contact replica dies rotates to a live one;
//  * the outstanding window may not outgrow the replicas' reply cache;
//  * inertness: a run without clients reports all-zero client counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "adversary/client_campaign.hpp"
#include "client/client.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "smr/checkpoint.hpp"
#include "smr/replica.hpp"

namespace modubft {
namespace {

// ----------------------------------------------------------------- codec

TEST(ClientWire, CommandIdPacksClientAndSeq) {
  const std::uint64_t id = smr::make_client_cmd_id(7, 123456);
  EXPECT_EQ(smr::client_of_cmd(id), 7u);
  EXPECT_EQ(smr::seq_of_cmd(id), 123456u);
  // Distinct clients and seqs never collide.
  EXPECT_NE(smr::make_client_cmd_id(7, 8), smr::make_client_cmd_id(8, 7));
}

TEST(ClientWire, RequestRoundTrip) {
  smr::ClientRequest req;
  req.seq = 42;
  req.op = smr::Command::Op::kPut;
  req.key = "k3";
  req.value = "v3_1";
  req.sig = Bytes{0xAA, 0xBB, 0xCC};
  const Bytes frame = smr::encode_control_request(req);
  ASSERT_GE(frame.size(), 9u);
  EXPECT_EQ(static_cast<smr::ControlKind>(frame[8]),
            smr::ControlKind::kRequest);
  Reader r(frame);
  r.u64();
  r.u8();
  const smr::ClientRequest back = smr::decode_client_request(r);
  EXPECT_EQ(back.seq, req.seq);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.key, req.key);
  EXPECT_EQ(back.value, req.value);
  EXPECT_EQ(back.sig, req.sig);
}

TEST(ClientWire, SigningPreimagesAreDomainSeparated) {
  // The two client signature kinds must be mutually unforgeable: the same
  // (client, number) pair yields distinct preimages per kind.
  const Bytes bound = smr::seq_bound_signing_bytes(6, 8);
  const Bytes req =
      smr::client_request_signing_bytes(6, 8, smr::Command::Op::kPut, "", "");
  EXPECT_NE(req, bound);
  // And the request preimage binds every command field.
  EXPECT_NE(req, smr::client_request_signing_bytes(
                     6, 8, smr::Command::Op::kPut, "k", ""));
  EXPECT_NE(req, smr::client_request_signing_bytes(
                     6, 8, smr::Command::Op::kPut, "", "v"));
  EXPECT_NE(req, smr::client_request_signing_bytes(
                     6, 9, smr::Command::Op::kPut, "", ""));
  EXPECT_NE(req, smr::client_request_signing_bytes(
                     7, 8, smr::Command::Op::kPut, "", ""));
}

TEST(ClientWire, ReplyRoundTrip) {
  smr::ClientReply reply;
  reply.seq = 5;
  reply.cmd_id = smr::make_client_cmd_id(4, 5);
  reply.slot = 17;
  reply.op = smr::Command::Op::kDel;
  reply.key = "gone";
  const Bytes frame = smr::encode_control_reply(reply);
  EXPECT_EQ(static_cast<smr::ControlKind>(frame[8]), smr::ControlKind::kReply);
  Reader r(frame);
  r.u64();
  r.u8();
  const smr::ClientReply back = smr::decode_client_reply(r);
  EXPECT_EQ(back.seq, reply.seq);
  EXPECT_EQ(back.cmd_id, reply.cmd_id);
  EXPECT_EQ(back.slot, reply.slot);
  EXPECT_EQ(back.op, reply.op);
  EXPECT_EQ(back.key, reply.key);
  EXPECT_EQ(back.value, reply.value);
}

TEST(ClientWire, BusyRelayFetchSeqBoundRoundTrips) {
  const Bytes busy = smr::encode_control_busy({9, 64});
  {
    Reader r(busy);
    r.u64();
    ASSERT_EQ(static_cast<smr::ControlKind>(r.u8()), smr::ControlKind::kBusy);
    const smr::BusyFrame back = smr::decode_busy(r);
    EXPECT_EQ(back.seq, 9u);
    EXPECT_EQ(back.queue_depth, 64u);
  }
  smr::CmdRelay relay;
  relay.client = 6;
  relay.seq = 3;
  relay.op = smr::Command::Op::kPut;
  relay.key = "k";
  relay.value = "v";
  relay.sig = Bytes{0x01, 0x02};
  const Bytes rel = smr::encode_control_relay(relay);
  {
    Reader r(rel);
    r.u64();
    ASSERT_EQ(static_cast<smr::ControlKind>(r.u8()),
              smr::ControlKind::kCmdRelay);
    const smr::CmdRelay back = smr::decode_cmd_relay(r);
    EXPECT_EQ(back.client, relay.client);
    EXPECT_EQ(back.seq, relay.seq);
    EXPECT_EQ(back.key, relay.key);
    EXPECT_EQ(back.sig, relay.sig);
  }
  const std::vector<std::uint64_t> ids = {smr::make_client_cmd_id(4, 1),
                                          smr::make_client_cmd_id(5, 2)};
  const Bytes fetch = smr::encode_control_fetch(ids);
  {
    Reader r(fetch);
    r.u64();
    ASSERT_EQ(static_cast<smr::ControlKind>(r.u8()),
              smr::ControlKind::kCmdFetch);
    EXPECT_EQ(smr::decode_cmd_fetch(r, smr::StateLimits{}), ids);
  }
  smr::SeqBound sb;
  sb.client = 7;
  sb.bound = 12;
  sb.sig = Bytes{0x09, 0x0A};
  const Bytes bound = smr::encode_control_seq_bound(sb);
  {
    Reader r(bound);
    r.u64();
    ASSERT_EQ(static_cast<smr::ControlKind>(r.u8()),
              smr::ControlKind::kSeqBound);
    const smr::SeqBound back = smr::decode_seq_bound(r);
    EXPECT_EQ(back.client, 7u);
    EXPECT_EQ(back.bound, 12u);
    EXPECT_EQ(back.sig, sb.sig);
  }
}

/// One process's view of the world: what it sent and what it broadcast.
class RecordingContext final : public sim::Context {
 public:
  explicit RecordingContext(std::uint32_t self) : self_{self} {}
  ProcessId id() const override { return self_; }
  std::uint32_t n() const override { return 5; }
  SimTime now() const override { return 0; }
  void send(ProcessId, Bytes payload) override {
    sent.push_back(std::move(payload));
  }
  void broadcast(const Bytes& payload) override {
    broadcasts.push_back(payload);
  }
  std::uint64_t set_timer(SimTime) override { return ++timers_armed; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

  std::vector<Bytes> sent;
  std::vector<Bytes> broadcasts;
  std::uint64_t timers_armed = 0;

 private:
  ProcessId self_;
  Rng rng_{0};
};

/// The seq of a REQUEST frame, or 0 for any other frame.
std::uint64_t request_seq(const Bytes& frame) {
  Reader r(frame);
  if (r.u64() != smr::kControlSlot ||
      static_cast<smr::ControlKind>(r.u8()) != smr::ControlKind::kRequest) {
    return 0;
  }
  return smr::decode_client_request(r).seq;
}

TEST(ClientInFlight, KeepsMaxOutstandingOpsInFlight) {
  client::ClientConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  for (int i = 0; i < 6; ++i) {
    cfg.ops.push_back(
        {smr::Command::Op::kPut, "k" + std::to_string(i), "v"});
  }
  cfg.max_outstanding = 3;
  client::Client c(cfg);
  RecordingContext ctx(4);

  // Start: seqs 1..3 go out, each with its retry timer and nothing else.
  c.on_start(ctx);
  ASSERT_EQ(ctx.sent.size(), 3u);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_EQ(request_seq(ctx.sent[seq - 1]), seq);
  }
  EXPECT_EQ(ctx.timers_armed, 3u);

  // Each certification (f+1 = 2 matching replies) sends exactly one more
  // REQUEST while the script lasts, and arms only that op's retry timer.
  for (std::uint64_t seq = 1; seq <= cfg.ops.size(); ++seq) {
    const client::ClientOp& op = cfg.ops[seq - 1];
    const Bytes reply = smr::encode_control_reply(
        {seq, smr::make_client_cmd_id(4, seq), seq, op.op, op.key, op.value});
    c.on_message(ctx, ProcessId{0}, reply);
    c.on_message(ctx, ProcessId{1}, reply);
    const std::uint64_t refills = std::min<std::uint64_t>(seq, 3);
    ASSERT_EQ(ctx.sent.size(), 3u + refills) << "after seq " << seq;
    EXPECT_EQ(request_seq(ctx.sent.back()), 3u + refills);
    EXPECT_EQ(ctx.timers_armed, 3u + refills) << "after seq " << seq;
  }
  EXPECT_TRUE(c.finished());
  EXPECT_EQ(c.stats().submitted, cfg.ops.size());
  EXPECT_EQ(c.stats().accepted, cfg.ops.size());
}

TEST(ClientSeqBound, FinishedClientBroadcastsItsScriptLength) {
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(5, 3);
  client::ClientConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.ops = {{smr::Command::Op::kPut, "a", "1"},
             {smr::Command::Op::kPut, "b", "2"}};
  cfg.signer = keys.signers[4].get();
  client::Client c(cfg);
  RecordingContext ctx(4);
  c.on_start(ctx);
  // f+1 = 2 matching replies certify each op.
  for (std::uint64_t seq = 1; seq <= cfg.ops.size(); ++seq) {
    EXPECT_TRUE(ctx.broadcasts.empty());
    const client::ClientOp& op = cfg.ops[seq - 1];
    const Bytes reply = smr::encode_control_reply(
        {seq, smr::make_client_cmd_id(4, seq), seq, op.op, op.key, op.value});
    c.on_message(ctx, ProcessId{0}, reply);
    c.on_message(ctx, ProcessId{1}, reply);
  }
  ASSERT_TRUE(c.finished());
  ASSERT_EQ(ctx.broadcasts.size(), 1u);
  Reader r(ctx.broadcasts.back());
  EXPECT_EQ(r.u64(), smr::kControlSlot);
  ASSERT_EQ(static_cast<smr::ControlKind>(r.u8()),
            smr::ControlKind::kSeqBound);
  const smr::SeqBound sb = smr::decode_seq_bound(r);
  EXPECT_EQ(sb.client, 4u);
  EXPECT_EQ(sb.bound, 2u);
  EXPECT_TRUE(keys.verifier->verify(
      ProcessId{4}, smr::seq_bound_signing_bytes(4, 2), sb.sig));
}

TEST(ClientSeqBound, ReplicaRejectsTheUnassignedKind9) {
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(5, 3);
  smr::ReplicaConfig cfg;
  cfg.n = 4;
  cfg.backend = smr::Backend::kByzantine;
  cfg.bft.n = 4;
  cfg.bft.f = 1;
  cfg.signer = keys.signers[0].get();
  cfg.verifier = keys.verifier;
  cfg.client.num_clients = 1;
  smr::Replica replica(cfg, {}, smr::CommitFn{});
  RecordingContext ctx(0);
  replica.on_start(ctx);

  // A SEQ_BOUND's bytes under kind 9: a frame of no known kind.
  Bytes frame = smr::encode_control_seq_bound({4, 2, {}});
  frame.at(8) = 9;
  replica.on_message(ctx, ProcessId{4}, frame);
  EXPECT_EQ(replica.pipeline_stats().recovery_rejects, 1u);
  EXPECT_EQ(replica.client_service_stats().bounds_recorded, 0u);

  // The same bytes under kind 10 record the bound.
  frame.at(8) = static_cast<std::uint8_t>(smr::ControlKind::kSeqBound);
  replica.on_message(ctx, ProcessId{4}, frame);
  EXPECT_EQ(replica.pipeline_stats().recovery_rejects, 1u);
  EXPECT_EQ(replica.client_service_stats().bounds_recorded, 1u);
}

TEST(ClientWire, SnapshotClientSectionRoundTripsAndEmptyIsByteIdentical) {
  smr::Snapshot snap;
  snap.slot = 8;
  snap.applied = 12;
  snap.data = {{"a", "1"}};
  for (std::uint64_t id = 1; id <= 12; ++id) snap.committed_ids.insert(id);

  // No client ever admitted: the encoding must be byte-identical to the
  // pre-client format (no trailing section at all).
  const Bytes bare = smr::encode_snapshot(snap);
  const smr::Snapshot bare_back = smr::decode_snapshot(bare, {});
  EXPECT_TRUE(bare_back.clients.empty());

  smr::Snapshot with = snap;
  with.clients[4][smr::make_client_cmd_id(4, 1)] = Bytes{0x01, 0x02};
  with.clients[5][smr::make_client_cmd_id(5, 1)] = Bytes{0x03};
  with.clients[5][smr::make_client_cmd_id(5, 2)] = Bytes{};
  const Bytes full = smr::encode_snapshot(with);
  EXPECT_GT(full.size(), bare.size());
  ASSERT_EQ(Bytes(full.begin(), full.begin() + bare.size()), bare)
      << "client section must be a pure suffix of the pre-client encoding";
  const smr::Snapshot back = smr::decode_snapshot(full, {});
  EXPECT_EQ(back.clients, with.clients);
}

// ------------------------------------------------------------ end to end

faults::SmrScenarioConfig client_scenario(smr::Backend backend,
                                          std::uint64_t seed) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = seed;
  sc.backend = backend;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.clients = faults::ClientLoadConfig{};  // 2 clients × 8 ops, closed loop
  return sc;
}

TEST(ClientService, ClosedLoopByzantineHappyPath) {
  const faults::SmrScenarioResult r =
      faults::run_smr_scenario(client_scenario(smr::Backend::kByzantine, 3));
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_EQ(r.run_stats.client.accepted, 16u);
  EXPECT_EQ(r.commit_log.size(), 16u);
  EXPECT_EQ(r.commit_log_duplicates, 0u);
  EXPECT_TRUE(adversary::audit_client_replies(r).empty());
  EXPECT_GT(r.run_stats.client.p50_us, 0u);
  EXPECT_GE(r.run_stats.client.p999_us, r.run_stats.client.p50_us);
  // Byzantine backend defaults to authenticated mode: honest traffic
  // never trips the signature check, and each client's final SEQ_BOUND is
  // recorded as its standing seq bound on every correct replica.
  EXPECT_EQ(r.run_stats.client.auth_rejects, 0u);
  EXPECT_GT(r.run_stats.client.bounds_recorded, 0u);
}

TEST(ClientService, CrashBackendMajorityCertification) {
  const faults::SmrScenarioResult r = faults::run_smr_scenario(
      client_scenario(smr::Backend::kCrashHurfinRaynal, 5));
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_EQ(r.run_stats.client.accepted, 16u);
  EXPECT_TRUE(adversary::audit_client_replies(r).empty());
}

TEST(ClientService, AggressiveRetriesAreSuppressedNotReExecuted) {
  faults::SmrScenarioConfig sc = client_scenario(smr::Backend::kByzantine, 7);
  // Retry far faster than the commit latency: the contact sees the same
  // seq again while the command is in flight (duplicate hit) and again
  // after it committed (cached-reply replay).
  sc.clients->retry_base = 300;
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_GT(r.run_stats.client.retries, 0u);
  EXPECT_GT(r.run_stats.client.duplicates + r.run_stats.client.replays, 0u);
  // The dedup core: 16 operations were submitted (plus every retry), and
  // exactly 16 commands were ever applied.
  EXPECT_EQ(r.commit_log.size(), 16u);
  EXPECT_EQ(r.commit_log_duplicates, 0u);
  EXPECT_EQ(r.run_stats.client.accepted, 16u);
  EXPECT_TRUE(adversary::audit_client_replies(r).empty());
}

TEST(ClientService, OverloadShedsWithBusyAndBoundsQueue) {
  faults::SmrScenarioConfig sc = client_scenario(smr::Backend::kByzantine, 9);
  sc.clients->max_outstanding = 8;
  sc.clients->ops_per_client = 12;
  sc.clients->max_pending = 2;  // tiny admission bound: shedding guaranteed
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_GT(r.run_stats.client.sheds, 0u);
  EXPECT_GT(r.run_stats.client.busy, 0u);
  // BUSY sheds are unproductive rounds: they count toward failover, so a
  // loaded contact gets rotated away from instead of pinning the client.
  EXPECT_GT(r.run_stats.client.failovers, 0u);
  // The pending set holds local admissions plus peer relays, so the
  // enforced bound is n × max_pending (each relay origin is capped at
  // max_pending), plus slack of up to one frontier batch for bodies a
  // parked commit is actively fetching — those bypass the caps because
  // shedding them would starve the exact command progress depends on.
  EXPECT_LE(r.run_stats.client.queue_peak,
            static_cast<std::uint64_t>(sc.n) * 2u + sc.batch);
  // Overload degrades latency, never correctness.
  EXPECT_EQ(r.run_stats.client.accepted, 24u);
  EXPECT_EQ(r.commit_log_duplicates, 0u);
  EXPECT_TRUE(adversary::audit_client_replies(r).empty());
}

TEST(ClientService, OpenLoopWindowMustFitTheReplyCache) {
  // A retried seq is answered from the replicas' bounded reply cache; with
  // more ops in flight than the cache holds, a retry could find its REPLY
  // evicted and never certify.  Such a window is rejected up front.
  client::ClientConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.ops = {client::ClientOp{smr::Command::Op::kPut, "k", "v"}};
  cfg.max_outstanding = smr::kReplyCacheDepth;
  EXPECT_NO_THROW(client::Client{cfg});
  cfg.max_outstanding = smr::kReplyCacheDepth + 1;
  EXPECT_THROW(client::Client{cfg}, ContractViolation);
}

TEST(ClientService, FailoverWhenContactDies) {
  faults::SmrScenarioConfig sc = client_scenario(smr::Backend::kByzantine, 11);
  // Client 0's contact is replica 0; kill it early with no restart.  The
  // client must rotate to a live contact to finish its script.
  sc.crashes.push_back({ProcessId{0}, 1'000, std::nullopt});
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.clients_done.size(), 2u);
  EXPECT_GT(r.run_stats.client.failovers, 0u);
  EXPECT_EQ(r.run_stats.client.accepted, 16u);
  EXPECT_TRUE(adversary::audit_client_replies(r).empty());
}

TEST(ClientService, SameSeedIsBitIdentical) {
  const faults::SmrScenarioConfig sc =
      client_scenario(smr::Backend::kByzantine, 13);
  const faults::SmrScenarioResult a = faults::run_smr_scenario(sc);
  const faults::SmrScenarioResult b = faults::run_smr_scenario(sc);
  EXPECT_TRUE(a.clean);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.commit_log, b.commit_log);
  EXPECT_EQ(a.run_stats.client.accepted, b.run_stats.client.accepted);
  EXPECT_EQ(a.run_stats.client.retries, b.run_stats.client.retries);
  EXPECT_EQ(a.run_stats.client.p99_us, b.run_stats.client.p99_us);
}

TEST(ClientService, DisabledClientsLeaveAllCountersZero) {
  // Pre-client configuration: preloaded workload, no client actors.  The
  // whole client service must be inert — zero counters, empty client maps.
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = 15;
  sc.backend = smr::Backend::kByzantine;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.workload = faults::sample_workload();
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_EQ(r.run_stats.client.clients, 0u);
  EXPECT_EQ(r.run_stats.client.requests, 0u);
  EXPECT_EQ(r.run_stats.client.replies_sent, 0u);
  EXPECT_EQ(r.run_stats.client.admitted, 0u);
  EXPECT_EQ(r.run_stats.client.accepted, 0u);
  EXPECT_TRUE(r.commit_log.empty());
  EXPECT_TRUE(r.client_stats.empty());
  EXPECT_TRUE(r.clients_done.empty());
}

TEST(ClientService, PreloadedWorkloadWithClientsIsRejected) {
  // The client commit rule commits client command ids only, so a preloaded
  // workload next to live clients would never commit: the runner refuses
  // the combination.
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.workload = faults::kv_workload(4);
  sc.clients = faults::ClientLoadConfig{};
  EXPECT_THROW(faults::run_smr_scenario(sc), ContractViolation);
}

}  // namespace
}  // namespace modubft
