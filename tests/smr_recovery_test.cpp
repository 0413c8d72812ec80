// Certified checkpoints, log compaction and crash-recovery state transfer
// (ISSUE 6), exercised on the deterministic simulator:
//
//  * snapshot codec canonicality (byte-identical encodings, stable digest);
//  * checkpoint certificates: quorum discipline, distinct-signer rule,
//    digest binding, the vacuous genesis certificate;
//  * RecoveryModule: accepts a certified response, rejects forged
//    certificates, digest-flipped snapshots and spliced certificates;
//  * end-to-end kill/restart recovery on both SMR backends;
//  * determinism: same seed + same crash schedule ⇒ bit-identical stores;
//  * compaction: the committed-slot log never retains more than C+W slots.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "adversary/client_campaign.hpp"
#include "bft/checkpoint_cert.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "smr/checkpoint.hpp"
#include "smr/recovery.hpp"

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
  EXPECT_EQ(mod.stats().resps_accepted, 1u);
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
  EXPECT_EQ(mod.stats().resps_rejected, 1u);
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
  for (std::uint32_t c = 1; c <= 60; ++c) {
    smr::Command cmd;
    cmd.id = c;
    cmd.key = "key" + std::to_string(c % 8);
    cmd.op = c % 5 == 0 ? smr::Command::Op::kDel : smr::Command::Op::kPut;
    if (cmd.op == smr::Command::Op::kPut) cmd.value = "v" + std::to_string(c);
    sc.workload.push_back(cmd);
  }
  sc.slots = 30;
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

}  // namespace
}  // namespace modubft
