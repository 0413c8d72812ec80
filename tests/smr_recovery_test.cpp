// Certified checkpoints, log compaction and crash-recovery state transfer
// (ISSUE 6), exercised on the deterministic simulator:
//
//  * snapshot codec canonicality (byte-identical encodings, stable digest);
//  * checkpoint certificates: quorum discipline, distinct-signer rule,
//    digest binding, the vacuous genesis certificate;
//  * RecoveryModule: accepts a certified response, rejects forged
//    certificates, digest-flipped snapshots and spliced certificates;
//  * end-to-end kill/restart recovery on both SMR backends;
//  * determinism: same seed + same crash schedule ⇒ bit-identical stores,
//    for a kill at a set time and for one on the victim's progress;
//  * a progress kill of the round-1 coordinator is suspected by the
//    crash back-end's oracles;
//  * compaction: the committed-slot log never retains more than C+W slots;
//  * checkpoint votes: only replicas vote, the first vote per replica and
//    slot counts, and a Byzantine replica flooding every boundary slot
//    with fabricated digests cannot block the certificates.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "adversary/client_campaign.hpp"
#include "bft/checkpoint_cert.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "common/rng.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"
#include "smr/recovery.hpp"
#include "smr/replica.hpp"

namespace modubft {
namespace {

crypto::SignatureSystem test_keys() {
  return crypto::HmacScheme{}.make_system(4, 99);
}

smr::Snapshot sample_snapshot() {
  smr::Snapshot snap;
  snap.slot = 8;
  snap.applied = 14;
  snap.data = {{"alpha", "1"}, {"beta", "2"}, {"gamma", ""}};
  for (std::uint64_t id = 1; id <= 14; ++id) snap.committed_ids.insert(id);
  return snap;
}

/// A fully certified STATE_RESP body (bytes after the kind octet) signed
/// by `signers` processes.
Bytes certified_resp_body(const crypto::SignatureSystem& keys,
                          std::uint32_t signers,
                          std::vector<smr::SuffixEntry> suffix = {}) {
  smr::StateResp resp;
  const smr::Snapshot snap = sample_snapshot();
  resp.ckpt_slot = snap.slot;
  resp.snapshot = smr::encode_snapshot(snap);
  const crypto::Digest digest = smr::snapshot_digest(resp.snapshot);
  const Bytes preimage = bft::checkpoint_signing_bytes(snap.slot, digest);
  for (std::uint32_t i = 0; i < signers; ++i) {
    resp.cert_sigs.emplace_back(i, keys.signers[i]->sign(preimage));
  }
  resp.suffix = std::move(suffix);
  const Bytes frame = smr::encode_control_state_resp(resp);
  return Bytes(frame.begin() + 9, frame.end());
}

smr::RecoveryModule make_module(const crypto::SignatureSystem& keys) {
  smr::RecoveryConfig rc;
  rc.n = 4;
  rc.cert_quorum = 3;
  rc.suffix_quorum = 2;
  rc.verifier = keys.verifier.get();
  return smr::RecoveryModule(rc);
}

// ----------------------------------------------------------------- codec

TEST(Checkpoint, SnapshotCodecRoundTrip) {
  const smr::Snapshot snap = sample_snapshot();
  const Bytes buf = smr::encode_snapshot(snap);
  const smr::Snapshot back = smr::decode_snapshot(buf, smr::StateLimits{});
  EXPECT_EQ(back.slot, snap.slot);
  EXPECT_EQ(back.applied, snap.applied);
  EXPECT_EQ(back.data, snap.data);
  EXPECT_EQ(back.committed_ids, snap.committed_ids);
  // Canonical: re-encoding the decoded value is byte-identical, so every
  // correct replica at the same frontier votes for the same digest.
  EXPECT_EQ(smr::encode_snapshot(back), buf);
}

TEST(Checkpoint, GenesisDigestIsRecomputable) {
  const Bytes a = smr::genesis_snapshot();
  const Bytes b = smr::genesis_snapshot();
  EXPECT_EQ(a, b);
  const smr::Snapshot snap = smr::decode_snapshot(a, smr::StateLimits{});
  EXPECT_EQ(snap.slot, 0u);
  EXPECT_TRUE(snap.data.empty());
}

// ----------------------------------------------------------- certificates

TEST(CheckpointCert, QuorumOfDistinctSignersVerifies) {
  const crypto::SignatureSystem keys = test_keys();
  const crypto::Digest digest = smr::snapshot_digest(smr::genesis_snapshot());
  const Bytes preimage = bft::checkpoint_signing_bytes(8, digest);

  bft::CheckpointCert cert;
  cert.slot = 8;
  cert.digest = digest;
  for (std::uint32_t i = 0; i < 3; ++i) {
    cert.sigs.emplace_back(i, keys.signers[i]->sign(preimage));
  }
  EXPECT_TRUE(bft::verify_checkpoint_cert(cert, *keys.verifier, 4, 3));

  // Two signatures are one short of the quorum.
  cert.sigs.pop_back();
  EXPECT_FALSE(bft::verify_checkpoint_cert(cert, *keys.verifier, 4, 3));

  // A duplicated signer must not count twice.
  cert.sigs.emplace_back(0, keys.signers[0]->sign(preimage));
  EXPECT_FALSE(bft::verify_checkpoint_cert(cert, *keys.verifier, 4, 3));
}

TEST(CheckpointCert, WrongDigestRejected) {
  const crypto::SignatureSystem keys = test_keys();
  const crypto::Digest digest = smr::snapshot_digest(smr::genesis_snapshot());
  const Bytes preimage = bft::checkpoint_signing_bytes(8, digest);

  bft::CheckpointCert cert;
  cert.slot = 8;
  cert.digest = adversary::forged_checkpoint_digest(8);  // claims a lie
  for (std::uint32_t i = 0; i < 3; ++i) {
    cert.sigs.emplace_back(i, keys.signers[i]->sign(preimage));
  }
  EXPECT_FALSE(bft::verify_checkpoint_cert(cert, *keys.verifier, 4, 3));
}

TEST(CheckpointCert, GenesisIsVacuouslyValid) {
  const crypto::SignatureSystem keys = test_keys();
  bft::CheckpointCert cert;  // slot 0, no signatures
  EXPECT_TRUE(bft::verify_checkpoint_cert(cert, *keys.verifier, 4, 3));
}

// --------------------------------------------------------- RecoveryModule

TEST(RecoveryModule, AcceptsCertifiedResponse) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryModule mod = make_module(keys);
  EXPECT_TRUE(mod.ingest(ProcessId{1}, certified_resp_body(keys, 3)));
  const auto best = mod.best_snapshot(0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->snapshot.slot, 8u);
  EXPECT_EQ(best->snapshot.data.at("alpha"), "1");
}

TEST(RecoveryModule, RejectsSubQuorumCoalitionForgery) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryModule mod = make_module(keys);
  // A single attacker fabricates a whole snapshot and "certifies" it with
  // the one key it holds — one valid signature, two short of the quorum.
  const Bytes frame = adversary::forged_state_resp(
      /*claim_slot=*/20, {keys.signers[1].get()});
  const Bytes body(frame.begin() + 9, frame.end());
  EXPECT_FALSE(mod.ingest(ProcessId{1}, body));
  EXPECT_FALSE(mod.best_snapshot(0).has_value());
}

TEST(RecoveryModule, RejectsDigestFlippedSnapshot) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryModule mod = make_module(keys);
  // Decode the certified body, flip one snapshot byte, re-encode: the
  // certificate no longer covers the bytes.
  const Bytes body = certified_resp_body(keys, 3);
  Reader r(body);
  smr::StateResp resp = smr::decode_state_resp(r, smr::StateLimits{});
  resp.snapshot[resp.snapshot.size() / 2] ^= 0x01;
  const Bytes frame = smr::encode_control_state_resp(resp);
  EXPECT_FALSE(mod.ingest(ProcessId{2}, Bytes(frame.begin() + 9, frame.end())));
}

TEST(RecoveryModule, RejectsSplicedCertificate) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryModule mod = make_module(keys);
  // Graft a quorum certificate for the genesis digest onto a non-genesis
  // snapshot: every signature is individually valid, but over the wrong
  // preimage.
  const Bytes body = certified_resp_body(keys, 3);
  Reader r(body);
  smr::StateResp resp = smr::decode_state_resp(r, smr::StateLimits{});
  const crypto::Digest genesis =
      smr::snapshot_digest(smr::genesis_snapshot());
  const Bytes preimage = bft::checkpoint_signing_bytes(resp.ckpt_slot, genesis);
  for (auto& [id, sig] : resp.cert_sigs) {
    sig = keys.signers[id]->sign(preimage);
  }
  const Bytes frame = smr::encode_control_state_resp(resp);
  EXPECT_FALSE(mod.ingest(ProcessId{2}, Bytes(frame.begin() + 9, frame.end())));
}

TEST(RecoveryModule, SuffixNeedsQuorumOfResponders) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryModule mod = make_module(keys);
  const std::vector<smr::SuffixEntry> suffix = {{9, {15, 16}}};
  EXPECT_TRUE(mod.ingest(ProcessId{0}, certified_resp_body(keys, 3, suffix)));
  // One responder is not enough (suffix batches are not cert-covered).
  EXPECT_FALSE(mod.batch_for(9).has_value());
  EXPECT_TRUE(mod.ingest(ProcessId{1}, certified_resp_body(keys, 3, suffix)));
  const auto batch = mod.batch_for(9);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(*batch, (std::vector<std::uint64_t>{15, 16}));
}

// ------------------------------------------------------------- end to end

faults::SmrScenarioConfig recovery_scenario(smr::Backend backend,
                                            std::uint64_t seed) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = seed;
  sc.backend = backend;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.workload = faults::kv_workload(60);
  // The simulator drains this workload in a few virtual ms; kill mid-run,
  // restart while the survivors are still committing.
  sc.crashes.push_back({ProcessId{2}, 1'500, 3'000});
  return sc;
}

TEST(Recovery, CrashBackendKillRestartRecovers) {
  const faults::SmrScenarioResult r = faults::run_smr_scenario(
      recovery_scenario(smr::Backend::kCrashHurfinRaynal, 7));
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.recovered.count(2), 1u);
  EXPECT_GT(r.run_stats.pipeline.recovery_installs, 0u);
  EXPECT_GT(r.run_stats.pipeline.checkpoint_certs, 0u);
}

TEST(Recovery, ByzantineBackendKillRestartRecovers) {
  const faults::SmrScenarioResult r =
      faults::run_smr_scenario(recovery_scenario(smr::Backend::kByzantine, 7));
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.recovered.count(2), 1u);
}

TEST(Recovery, SameSeedAndScheduleIsBitIdentical) {
  const faults::SmrScenarioConfig sc =
      recovery_scenario(smr::Backend::kCrashHurfinRaynal, 11);
  const faults::SmrScenarioResult a = faults::run_smr_scenario(sc);
  const faults::SmrScenarioResult b = faults::run_smr_scenario(sc);
  EXPECT_TRUE(a.clean);
  EXPECT_EQ(a.stores, b.stores);  // every replica, every key, every byte
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.run_stats.pipeline.recovery_installs,
            b.run_stats.pipeline.recovery_installs);
}

// A victim that comes back only after every client finished: nobody
// stops by itself, so the survivors are still there to serve its state
// transfer, and the run ends once the fresh life applied every command.
TEST(Recovery, LateRecovererInAClientRunCatchesUp) {
  for (smr::Backend backend :
       {smr::Backend::kCrashHurfinRaynal, smr::Backend::kByzantine}) {
    faults::SmrScenarioConfig sc;
    sc.n = 4;
    sc.f = 1;
    sc.seed = 17;
    sc.backend = backend;
    sc.window = 4;
    sc.batch = 2;
    sc.checkpoint_interval = 4;
    sc.clients = faults::ClientLoadConfig{};  // 2 clients × 8 ops
    sc.crashes.push_back({ProcessId{1}, 1'000, 500'000});
    const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
    const bool byz = backend == smr::Backend::kByzantine;
    EXPECT_TRUE(r.clean) << byz;
    EXPECT_EQ(r.recovered, (std::set<std::uint32_t>{1})) << byz;
    EXPECT_TRUE(r.stores_agree) << byz;
    EXPECT_EQ(r.clients_done.size(), 2u) << byz;
    EXPECT_EQ(r.run_stats.client.accepted, 16u) << byz;
    EXPECT_GT(r.run_stats.virtual_time, 500'000u) << byz;
  }
}

/// The crash back-end's recovery scenario with one progress kill: `victim`
/// halts as it commits slot 10, past two checkpoint boundaries.
faults::SmrScenarioConfig progress_kill_scenario(
    std::uint32_t victim, std::optional<SimTime> restart_after) {
  faults::SmrScenarioConfig sc =
      recovery_scenario(smr::Backend::kCrashHurfinRaynal, 19);
  faults::CrashSpec kill;
  kill.who = ProcessId{victim};
  kill.after_commit = 10;
  kill.restart_at = restart_after;
  sc.crashes = {kill};
  return sc;
}

// p0 coordinates round 1 of every slot.  Once it halts, the survivors
// decide a slot only after their oracles suspect it, from the instant the
// kill fired plus the detection lag: the run outlasts the lag, and still
// finishes.
TEST(Recovery, ProgressKillOfTheCoordinatorIsSuspected) {
  const faults::SmrScenarioConfig sc = progress_kill_scenario(0, std::nullopt);
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.correct, (std::set<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_GT(r.run_stats.virtual_time, sc.oracle.detection_lag);
}

TEST(Recovery, ProgressKillAndRestartRecoversBitIdentically) {
  const faults::SmrScenarioConfig sc = progress_kill_scenario(2, 1'500);
  const faults::SmrScenarioResult a = faults::run_smr_scenario(sc);
  const faults::SmrScenarioResult b = faults::run_smr_scenario(sc);
  EXPECT_TRUE(a.clean);
  EXPECT_TRUE(a.all_committed);
  EXPECT_TRUE(a.stores_agree);
  EXPECT_EQ(a.recovered.count(2), 1u);
  EXPECT_GT(a.run_stats.pipeline.recovery_installs, 0u);
  EXPECT_EQ(a.stores, b.stores);  // every replica, every key, every byte
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.run_stats.virtual_time, b.run_stats.virtual_time);
}

TEST(Recovery, LogNeverRetainsMoreThanIntervalPlusWindow) {
  faults::SmrScenarioConfig sc =
      recovery_scenario(smr::Backend::kCrashHurfinRaynal, 13);
  sc.crashes.clear();  // long steady-state run, compaction only
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_GT(r.run_stats.pipeline.log_truncated, 0u);
  EXPECT_LE(r.run_stats.pipeline.log_peak,
            sc.checkpoint_interval + sc.window);
}

TEST(Recovery, IntervalZeroSendsNoControlFrames) {
  faults::SmrScenarioConfig sc =
      recovery_scenario(smr::Backend::kCrashHurfinRaynal, 17);
  sc.checkpoint_interval = 0;
  sc.crashes.clear();
  const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.all_committed);
  EXPECT_EQ(r.run_stats.pipeline.checkpoints_taken, 0u);
  EXPECT_EQ(r.run_stats.pipeline.state_reqs, 0u);
  EXPECT_EQ(r.run_stats.pipeline.state_resps, 0u);
  EXPECT_EQ(r.run_stats.pipeline.log_truncated, 0u);
}

// ------------------------------------------------------- checkpoint votes

/// Replica 0's context: discards what it sends (the votes here are fed
/// back by hand).
class SilentContext final : public sim::Context {
 public:
  ProcessId id() const override { return ProcessId{0}; }
  std::uint32_t n() const override { return 4; }
  SimTime now() const override { return 0; }
  void send(ProcessId, Bytes) override {}
  void broadcast(const Bytes&) override {}
  std::uint64_t set_timer(SimTime) override { return 1; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

 private:
  Rng rng_{0};
};

TEST(CheckpointVotes, OnlyReplicasVoteAndTheFirstVotePerSlotCounts) {
  // Keys for the 4 replicas and one client (process 4).
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(5, 3);
  smr::ReplicaConfig cfg;
  cfg.n = 4;
  cfg.checkpoint.interval = 4;
  cfg.signer = keys.signers[0].get();
  cfg.verifier = keys.verifier;
  smr::PipelineStats stats;
  smr::Checkpointer ckpt(cfg, stats, keys.verifier.get());
  SilentContext ctx;
  auto vote = [&](std::uint32_t from, const crypto::Digest& digest) {
    smr::CheckpointVote v;
    v.slot = 4;
    v.digest = digest;
    v.sig =
        keys.signers[from]->sign(bft::checkpoint_signing_bytes(4, digest));
    const Bytes frame = smr::encode_control_vote(v);
    ckpt.on_frame(ctx, ProcessId{from}, smr::ControlKind::kCheckpointVote,
                  Bytes(frame.begin() + 9, frame.end()));
  };

  smr::Snapshot snap;
  snap.slot = 4;
  ASSERT_TRUE(ckpt.due(4));
  ckpt.take(ctx, snap);
  const crypto::Digest digest =
      smr::snapshot_digest(smr::encode_snapshot(snap));
  crypto::Digest fabricated{};
  fabricated.fill(0xA5);

  // A validly signed vote from a client is not a replica's vote.
  vote(4, digest);
  EXPECT_EQ(stats.recovery_rejects, 1u);

  // Replica 1 votes a fabricated digest first: its later vote for the
  // true digest does not count, so own + replica 2 stay below the crash
  // quorum of 3.
  vote(0, digest);
  vote(1, fabricated);
  vote(1, digest);
  vote(2, digest);
  EXPECT_EQ(stats.checkpoint_certs, 0u);
  EXPECT_EQ(stats.recovery_rejects, 1u);
  vote(3, digest);
  EXPECT_EQ(stats.checkpoint_certs, 1u);
}

// A client run's log has no end, so every multiple of C is a boundary a
// vote may name.  A replica voting for far-future boundaries holds at most
// kMaxOpenVoteSlots slots open, and a lower boundary's votes evict its
// highest one: the correct quorum still certifies.
TEST(CheckpointVotes, FarFutureVotesHoldABoundedSetOfSlots) {
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 5);
  smr::ReplicaConfig cfg;
  cfg.n = 4;
  cfg.checkpoint.interval = 4;
  cfg.client.num_clients = 1;
  cfg.signer = keys.signers[0].get();
  cfg.verifier = keys.verifier;
  smr::PipelineStats stats;
  smr::Checkpointer ckpt(cfg, stats, keys.verifier.get());
  SilentContext ctx;
  auto vote = [&](std::uint32_t from, std::uint64_t slot,
                  const crypto::Digest& digest) {
    smr::CheckpointVote v;
    v.slot = slot;
    v.digest = digest;
    v.sig =
        keys.signers[from]->sign(bft::checkpoint_signing_bytes(slot, digest));
    const Bytes frame = smr::encode_control_vote(v);
    ckpt.on_frame(ctx, ProcessId{from}, smr::ControlKind::kCheckpointVote,
                  Bytes(frame.begin() + 9, frame.end()));
  };

  crypto::Digest fabricated{};
  fabricated.fill(0x5A);
  for (std::uint64_t k = 1; k <= 200; ++k) vote(3, 4 * (1000 + k), fabricated);
  EXPECT_EQ(ckpt.open_vote_slots(), smr::kMaxOpenVoteSlots);

  smr::Snapshot snap;
  snap.slot = 4;
  ckpt.take(ctx, snap);
  const crypto::Digest digest =
      smr::snapshot_digest(smr::encode_snapshot(snap));
  for (std::uint32_t from : {0u, 1u, 2u}) vote(from, 4, digest);
  EXPECT_EQ(stats.checkpoint_certs, 1u);
  EXPECT_LE(ckpt.open_vote_slots(), smr::kMaxOpenVoteSlots);
}

// ------------------------------------------------------------ vote flood

/// A replica that, at start, broadcasts kFloodVariants self-signed
/// checkpoint votes with distinct fabricated digests for every boundary
/// slot of the 12 slots the workload fills, then runs the honest replica
/// it wraps.
class VoteFlooder final : public sim::Actor {
 public:
  static constexpr std::uint8_t kFloodVariants = 4;

  VoteFlooder(std::unique_ptr<sim::Actor> inner,
              std::shared_ptr<const crypto::SignatureSystem> keys)
      : inner_(std::move(inner)), keys_(std::move(keys)) {}

  void on_start(sim::Context& ctx) override {
    for (std::uint64_t slot : {4u, 8u, 12u}) {
      for (std::uint8_t v = 0; v < kFloodVariants; ++v) {
        smr::CheckpointVote vote;
        vote.slot = slot;
        vote.digest.fill(static_cast<std::uint8_t>(0xA0 + v));
        vote.sig = keys_->signers[ctx.id().value]->sign(
            bft::checkpoint_signing_bytes(vote.slot, vote.digest));
        ctx.broadcast(smr::encode_control_vote(vote));
      }
    }
    inner_->on_start(ctx);
  }
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    inner_->on_message(ctx, from, payload);
  }
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    inner_->on_timer(ctx, timer_id);
  }

 private:
  std::unique_ptr<sim::Actor> inner_;
  std::shared_ptr<const crypto::SignatureSystem> keys_;
};

/// n = 4, W4 B2 C4, 24 preloaded commands over 12 slots, p4 (id 3)
/// flooding every boundary slot before any correct vote exists.
faults::SmrScenarioConfig vote_flood_scenario(smr::Backend backend,
                                              std::uint64_t seed) {
  faults::SmrScenarioConfig sc;
  sc.n = 4;
  sc.f = 1;
  sc.seed = seed;
  sc.backend = backend;
  sc.window = 4;
  sc.batch = 2;
  sc.checkpoint_interval = 4;
  sc.workload = faults::kv_workload(24);
  sc.assume_faulty = {3};
  // The flooder signs with its own key from the run's HMAC system.
  auto keys = std::make_shared<const crypto::SignatureSystem>(
      crypto::HmacScheme{}.make_system(sc.n, seed));
  sc.wrap_actor = [keys](ProcessId id, std::unique_ptr<sim::Actor> inner)
      -> std::unique_ptr<sim::Actor> {
    if (id.value != 3) return inner;
    return std::make_unique<VoteFlooder>(std::move(inner), keys);
  };
  return sc;
}

TEST(Recovery, VoteFloodCannotBlockCheckpointCertificates) {
  for (smr::Backend backend :
       {smr::Backend::kCrashHurfinRaynal, smr::Backend::kByzantine}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      const faults::SmrScenarioResult r =
          faults::run_smr_scenario(vote_flood_scenario(backend, seed));
      EXPECT_TRUE(r.clean);
      EXPECT_TRUE(r.all_committed);
      EXPECT_TRUE(r.stores_agree);
      EXPECT_GT(r.run_stats.pipeline.checkpoint_certs, 0u);
      EXPECT_GT(r.run_stats.pipeline.log_truncated, 0u);
      EXPECT_LT(r.run_stats.pipeline.log_peak, 12u);  // not the whole log
    }
  }
}

TEST(Recovery, VoteFloodCannotForceAGenesisRecovery) {
  // p2 (id 1) is killed before the first boundary and restarted after the
  // survivors certified one: it must install a certified snapshot instead
  // of falling back to genesis plus the whole suffix.
  for (smr::Backend backend :
       {smr::Backend::kCrashHurfinRaynal, smr::Backend::kByzantine}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      faults::SmrScenarioConfig sc = vote_flood_scenario(backend, seed);
      sc.crashes.push_back({ProcessId{1}, 2'000, 40'000});
      const faults::SmrScenarioResult r = faults::run_smr_scenario(sc);
      EXPECT_TRUE(r.clean);
      EXPECT_TRUE(r.all_committed);
      EXPECT_TRUE(r.stores_agree);
      EXPECT_EQ(r.recovered.count(1), 1u);
      EXPECT_GT(r.run_stats.pipeline.recovery_installs, 0u);
    }
  }
}

}  // namespace
}  // namespace modubft
