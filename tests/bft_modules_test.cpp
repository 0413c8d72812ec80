// Unit tests for the individual pipeline modules (paper Figure 1):
// signature module, muteness module, non-muteness module, certification
// module.
#include <gtest/gtest.h>

#include "bft/modules.hpp"
#include "crypto/hmac_signer.hpp"

namespace modubft::bft {
namespace {

class ModulesFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 4;

  ModulesFixture()
      : keys_(crypto::HmacScheme{}.make_system(kN, 11)),
        module_(keys_.signers[1].get(), keys_.verifier) {}

  MessageCore current_core(std::uint32_t sender) const {
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ProcessId{sender};
    core.round = Round{1};
    core.est = {consensus::Value{1}, std::nullopt, consensus::Value{3},
                std::nullopt};
    return core;
  }

  static PeerModelFactory monitors() {
    return [](ProcessId peer, const CertAnalyzer& analyzer) {
      return std::make_unique<PeerMonitor>(peer, analyzer);
    };
  }

  crypto::SignatureSystem keys_;
  SignatureModule module_;  // signs as p2
};

TEST_F(ModulesFixture, SignatureRoundTrip) {
  const Bytes frame = module_.sign(current_core(1), Certificate{});
  SignatureModule::Inbound in = module_.authenticate(ProcessId{1}, frame);
  EXPECT_TRUE(in.ok);
  EXPECT_EQ(in.msg->core, current_core(1));
  EXPECT_EQ(encode_message(*in.msg), frame);
}

TEST_F(ModulesFixture, RejectsUndecodableFrame) {
  SignatureModule::Inbound in =
      module_.authenticate(ProcessId{1}, Bytes{1, 2, 3});
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kMalformed);
}

TEST_F(ModulesFixture, RejectsIdentityMismatch) {
  // p2 signs honestly, but the frame arrives on p3's channel: the relayer
  // is impersonating (or replaying) — the channel sender is the culprit.
  const Bytes frame = module_.sign(current_core(1), Certificate{});
  SignatureModule::Inbound in = module_.authenticate(ProcessId{2}, frame);
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kIdentityMismatch);
}

TEST_F(ModulesFixture, RejectsWrongKeySignature) {
  // Claimed sender p3, but signed with p2's key.
  const Bytes frame = module_.sign(current_core(2), Certificate{});
  SignatureModule::Inbound in = module_.authenticate(ProcessId{2}, frame);
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kBadSignature);
}

TEST_F(ModulesFixture, RejectsNonCanonicalFrame) {
  Bytes frame = module_.sign(current_core(1), Certificate{});
  // Mutate the ignored value slot of the null entry at index 1: the frame
  // still decodes to the same message, but is not the canonical encoding.
  // Core layout: [u32 len][kind u8][sender u32][round u32][init u64]
  //              [vec len u32][ (present u8 + value u64) × 4 ]...
  const std::size_t entry1_value = 4 + 1 + 4 + 4 + 8 + 4 + 9 + 1;
  frame[entry1_value] ^= 0xff;
  SignatureModule::Inbound in = module_.authenticate(ProcessId{1}, frame);
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kMalformed);
}

TEST_F(ModulesFixture, MutenessModuleTracksActivity) {
  MutenessModule mute(kN, ProcessId{0}, fd::MutenessConfig{});
  mute.on_protocol_message(ProcessId{1}, 0);
  EXPECT_FALSE(mute.suspects(ProcessId{1}, 10'000));
  EXPECT_TRUE(mute.suspects(ProcessId{1}, 100'000));
  mute.on_protocol_message(ProcessId{1}, 100'000);
  EXPECT_FALSE(mute.suspects(ProcessId{1}, 110'000));
}

TEST_F(ModulesFixture, NonMutenessModuleRecordsAndFilters) {
  const CertAnalyzer analyzer(kN, 3, keys_.verifier);
  NonMutenessModule nonmute(kN, analyzer, monitors());

  EXPECT_FALSE(nonmute.is_faulty(ProcessId{2}));
  nonmute.declare_faulty(ProcessId{2}, FaultKind::kBadSignature, "test", 42);
  EXPECT_TRUE(nonmute.is_faulty(ProcessId{2}));
  ASSERT_EQ(nonmute.records().size(), 1u);
  EXPECT_EQ(nonmute.records()[0].culprit, (ProcessId{2}));
  EXPECT_EQ(nonmute.records()[0].time, 42u);
  EXPECT_EQ(nonmute.faulty_set().size(), 1u);
}

TEST_F(ModulesFixture, NonMutenessMonitorPathConvicts) {
  const CertAnalyzer analyzer(kN, 3, keys_.verifier);
  NonMutenessModule nonmute(kN, analyzer, monitors());

  // A CURRENT before INIT violates FIFO expectations.
  const SignedMessage msg =
      decode_message(module_.sign(current_core(1), Certificate{}));
  Verdict v = nonmute.observe(ProcessId{1}, msg, 7);
  EXPECT_FALSE(v);
  EXPECT_TRUE(nonmute.is_faulty(ProcessId{1}));
  // Subsequent messages are swallowed without fresh records.
  const std::size_t before = nonmute.records().size();
  (void)nonmute.observe(ProcessId{1}, msg, 8);
  EXPECT_EQ(nonmute.records().size(), before);
}

class CertModuleFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 4;

  CertModuleFixture() : keys_(crypto::HmacScheme{}.make_system(kN, 13)) {
    config_.n = kN;
    config_.f = 1;
  }

  MemberPtr make(BftKind kind, std::uint32_t sender, std::uint32_t round,
                 Certificate cert = {}) const {
    MessageCore core;
    core.kind = kind;
    core.sender = ProcessId{sender};
    core.round = Round{round};
    if (kind == BftKind::kInit) core.init_value = 100 + sender;
    SignedMessage msg;
    msg.core = std::move(core);
    msg.cert = std::move(cert);
    msg.sig = keys_.signers[sender]->sign(signing_bytes(msg.core, msg.cert));
    return std::make_shared<const SignedMessage>(std::move(msg));
  }

  crypto::SignatureSystem keys_;
  BftConfig config_;
};

TEST_F(CertModuleFixture, InitCountDeduplicatesSenders) {
  CertificationModule cert(config_);
  cert.add_init(make(BftKind::kInit, 0, 0));
  cert.add_init(make(BftKind::kInit, 1, 0));
  cert.add_init(make(BftKind::kInit, 1, 0));  // duplicate sender
  EXPECT_EQ(cert.init_count(), 2u);
}

TEST_F(CertModuleFixture, RecFromUnionsAllVoteSources) {
  CertificationModule cert(config_);
  cert.add_current(make(BftKind::kCurrent, 0, 1));
  cert.add_next(make(BftKind::kNext, 1, 1));
  cert.add_conflicting_current(make(BftKind::kCurrent, 2, 1));
  auto rec = cert.rec_from();
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_TRUE(rec.count(ProcessId{2}));
}

TEST_F(CertModuleFixture, ResetRoundClearsVoteCertsOnly) {
  CertificationModule cert(config_);
  cert.add_init(make(BftKind::kInit, 0, 0));
  cert.add_current(make(BftKind::kCurrent, 0, 1));
  cert.add_next(make(BftKind::kNext, 1, 1));
  cert.add_conflicting_current(make(BftKind::kCurrent, 2, 1));
  cert.reset_round();
  EXPECT_EQ(cert.current_count(), 0u);
  EXPECT_EQ(cert.next_count(), 0u);
  EXPECT_TRUE(cert.conflict_cert().empty());
  EXPECT_EQ(cert.init_count(), 1u);  // est_cert survives rounds
}

TEST_F(CertModuleFixture, BuildPrunesNestedNextCerts) {
  CertificationModule cert(config_);
  Certificate inner;
  inner.add(make(BftKind::kInit, 0, 0));
  cert.add_next(make(BftKind::kNext, 1, 1, inner));
  Certificate built = cert.build({&cert.next_cert()});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_TRUE(built.member(0).cert.pruned);
  // Digest-chaining keeps the nested signature verifiable after pruning.
  const SignedMessage& m = built.member(0);
  EXPECT_TRUE(keys_.verifier->verify(m.core.sender,
                                     signing_bytes(m.core, m.cert), m.sig));
}

TEST_F(CertModuleFixture, BuildKeepsNextCertsWhenPruningDisabled) {
  config_.prune_nested_next = false;
  CertificationModule cert(config_);
  Certificate inner;
  inner.add(make(BftKind::kInit, 0, 0));
  cert.add_next(make(BftKind::kNext, 1, 1, inner));
  Certificate built = cert.build({&cert.next_cert()});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_FALSE(built.member(0).cert.pruned);
  EXPECT_EQ(built.member(0).cert.size(), 1u);
}

TEST_F(CertModuleFixture, BuildNeverPrunesCurrents) {
  CertificationModule cert(config_);
  Certificate inner;
  inner.add(make(BftKind::kInit, 0, 0));
  cert.add_current(make(BftKind::kCurrent, 0, 1, inner));
  Certificate built = cert.build({&cert.current_cert()});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_FALSE(built.member(0).cert.pruned);
}

TEST_F(CertModuleFixture, RelayOfKeepsAdoptedMessageIntact) {
  CertificationModule cert(config_);
  Certificate inner;
  inner.add(make(BftKind::kInit, 0, 0));
  MemberPtr adopted = make(BftKind::kCurrent, 0, 1, inner);
  Certificate relay = cert.relay_of(adopted);
  ASSERT_EQ(relay.size(), 1u);
  EXPECT_FALSE(relay.member(0).cert.pruned);
  EXPECT_EQ(relay.member(0).core, adopted->core);
}

TEST_F(CertModuleFixture, AdoptEstReplacesWholesale) {
  CertificationModule cert(config_);
  cert.add_init(make(BftKind::kInit, 0, 0));
  Certificate adopted;
  adopted.add(make(BftKind::kInit, 1, 0));
  adopted.add(make(BftKind::kInit, 2, 0));
  cert.adopt_est(adopted);
  EXPECT_EQ(cert.est_cert().size(), 2u);
}

}  // namespace
}  // namespace modubft::bft
