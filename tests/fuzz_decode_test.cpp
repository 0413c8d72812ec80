// Wire-decoder hardening under mutation fuzzing (adversary/fuzzer.hpp).
//
// The decode path (bft::decode_message / Reader) faces bytes a Byzantine
// peer fully controls.  These tests drive it two ways:
//
//  * a seeded mutation fuzz loop — every mutated frame must either decode
//    or raise SerialError through the typed try_decode_message outcome
//    (nothing else escapes, no crash, no out-of-bounds read — the
//    sanitizer pass runs this file under ASan/UBSan), and every frame that
//    DOES decode must re-encode byte-identically (one message, one byte
//    string: the canonicality that makes signatures over re-encoded
//    messages sound);
//
//  * handcrafted regressions, one per malformed-input class the fuzzer
//    discovered while the decoder was being hardened: truncation at every
//    byte, unknown kind tags, out-of-range booleans, non-canonical null
//    est entries, sequence/depth/signature/frame caps, trailing bytes.
//
// The last test closes the loop at the module layer: a mutated frame fed
// to SignatureModule::authenticate yields a verdict naming the channel
// sender — garbage on the wire is a detection, never an exception.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "adversary/fuzzer.hpp"
#include "bft/checkpoint_cert.hpp"
#include "bft/message.hpp"
#include "bft/modules.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "smr/checkpoint.hpp"
#include "smr/recovery.hpp"

namespace modubft {
namespace {

using adversary::MutationSpec;
using adversary::mutate_frame;

crypto::SignatureSystem test_keys() {
  return crypto::HmacScheme{}.make_system(4, 42);
}

/// A realistic signed CURRENT with a two-deep certificate (INIT members
/// plus a nested pruned certificate) — the shape real traffic has.
bft::SignedMessage sample_message(const crypto::SignatureSystem& keys) {
  auto sign = [&](bft::MessageCore core, bft::Certificate cert) {
    bft::SignedMessage m;
    m.core = std::move(core);
    m.cert = std::move(cert);
    m.sig = keys.signers[m.core.sender.value]->sign(
        bft::signing_bytes(m.core, m.cert));
    return m;
  };

  bft::Certificate inits;
  for (std::uint32_t i = 0; i < 3; ++i) {
    bft::MessageCore init;
    init.kind = bft::BftKind::kInit;
    init.sender = ProcessId{i};
    init.round = Round{0};
    init.init_value = 1000 + i;
    inits.add(sign(std::move(init), bft::Certificate{}));
  }

  bft::MessageCore current;
  current.kind = bft::BftKind::kCurrent;
  current.sender = ProcessId{0};
  current.round = Round{1};
  current.est = {1000, 1001, 1002, std::nullopt};
  return sign(std::move(current), std::move(inits));
}

// ---------------------------------------------------------------- fuzz loop

TEST(FuzzDecode, MutatedFramesNeverEscapeTypedOutcome) {
  const crypto::SignatureSystem keys = test_keys();
  const Bytes frame = bft::encode_message(sample_message(keys));

  const MutationSpec specs[] = {
      {.bitflip_prob = 1.0},
      {.truncate_prob = 1.0},
      {.splice_prob = 1.0},
      {.bitflip_prob = 0.5, .truncate_prob = 0.3, .splice_prob = 0.5},
  };

  std::size_t decoded = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    for (const MutationSpec& spec : specs) {
      const Bytes mutated = mutate_frame(frame, rng, spec);
      // Must not throw: every failure is a typed outcome.
      const bft::DecodeOutcome out = bft::try_decode_message(mutated);
      if (out) {
        ++decoded;
        // Canonicality: a frame that decodes re-encodes byte-identically.
        EXPECT_EQ(bft::encode_message(out.msg), mutated);
      } else {
        ++rejected;
        EXPECT_FALSE(out.error.empty());
      }
    }
  }
  // The loop exercised both paths (unmutated-equivalent flips are rare but
  // single-bit flips inside the sig bytes still decode fine).
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzDecode, WireMutatorStreamIsDeterministic) {
  const crypto::SignatureSystem keys = test_keys();
  const Bytes frame = bft::encode_message(sample_message(keys));
  MutationSpec spec;
  spec.bitflip_prob = 0.5;
  spec.splice_prob = 0.5;

  Rng a(7), b(7), c(8);
  std::vector<Bytes> xs, ys, zs;
  for (int i = 0; i < 32; ++i) {
    xs.push_back(mutate_frame(frame, a, spec));
    ys.push_back(mutate_frame(frame, b, spec));
    zs.push_back(mutate_frame(frame, c, spec));
  }
  EXPECT_EQ(xs, ys);  // same seed, same byte stream — replayable cells
  EXPECT_NE(xs, zs);  // different seed, different stream
}

// ------------------------------------------------- handcrafted regressions

TEST(FuzzDecodeRegression, EveryTruncationRejected) {
  const Bytes frame = bft::encode_message(sample_message(test_keys()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const Bytes cut(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(bft::try_decode_message(cut)) << "prefix length " << len;
  }
}

TEST(FuzzDecodeRegression, TrailingByteRejected) {
  Bytes frame = bft::encode_message(sample_message(test_keys()));
  frame.push_back(0);
  const bft::DecodeOutcome out = bft::try_decode_message(frame);
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("trailing"), std::string::npos);
}

// Frame layout: [core_len:u32][kind:u8][sender:u32][round:u32][init:u64]
// [est_len:u32][(flag:u8, value:u64) * est_len] ... — offsets below index
// straight into the sample message's encoding.
constexpr std::size_t kKindOffset = 4;
constexpr std::size_t kFirstEstFlagOffset = 4 + 1 + 4 + 4 + 8 + 4;

TEST(FuzzDecodeRegression, UnknownKindRejected) {
  const Bytes frame = bft::encode_message(sample_message(test_keys()));
  for (std::uint8_t kind : {0, 5, 6, 255}) {
    Bytes bad = frame;
    bad[kKindOffset] = kind;
    const bft::DecodeOutcome out = bft::try_decode_message(bad);
    ASSERT_FALSE(out) << "kind " << int(kind);
    EXPECT_NE(out.error.find("kind"), std::string::npos);
  }
}

TEST(FuzzDecodeRegression, BooleanOutOfRangeRejected) {
  const Bytes frame = bft::encode_message(sample_message(test_keys()));
  Bytes bad = frame;
  bad[kFirstEstFlagOffset] = 2;  // presence flag must be 0 or 1
  const bft::DecodeOutcome out = bft::try_decode_message(bad);
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("boolean"), std::string::npos);
}

TEST(FuzzDecodeRegression, NonCanonicalNullEntryRejected) {
  // The sample est is {1000, 1001, 1002, null}: entry 3's flag is 0 and
  // its value slot must be all-zero.  A nonzero byte there would create a
  // second byte string decoding to the same message — covert variation.
  const Bytes frame = bft::encode_message(sample_message(test_keys()));
  const std::size_t null_value_offset = kFirstEstFlagOffset + 3 * 9 + 1;
  ASSERT_EQ(frame[null_value_offset - 1], 0);  // the flag byte
  Bytes bad = frame;
  bad[null_value_offset] = 7;
  const bft::DecodeOutcome out = bft::try_decode_message(bad);
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("non-canonical"), std::string::npos);
}

TEST(FuzzDecodeRegression, VectorLengthCapEnforced) {
  const crypto::SignatureSystem keys = test_keys();
  bft::SignedMessage msg = sample_message(keys);
  msg.core.est.assign(10, std::optional<consensus::Value>(1));
  const Bytes frame = bft::encode_message(msg);
  bft::DecodeLimits limits;
  limits.max_vector = 5;
  EXPECT_FALSE(bft::try_decode_message(frame, limits));
  EXPECT_TRUE(bft::try_decode_message(frame));  // fine under the default cap
}

TEST(FuzzDecodeRegression, MemberCountCapEnforced) {
  const crypto::SignatureSystem keys = test_keys();
  bft::SignedMessage msg = sample_message(keys);
  bft::DecodeLimits limits;
  limits.max_members = 2;  // the sample cert has 3 members
  EXPECT_FALSE(bft::try_decode_message(bft::encode_message(msg), limits));
}

TEST(FuzzDecodeRegression, DepthBombRejected) {
  bft::SignedMessage msg;
  msg.core.kind = bft::BftKind::kNext;
  msg.core.sender = ProcessId{0};
  msg.core.round = Round{1};
  for (int depth = 0; depth < 40; ++depth) {
    bft::SignedMessage outer;
    outer.core = msg.core;
    outer.cert = bft::Certificate::of({msg});
    msg = std::move(outer);
  }
  const bft::DecodeOutcome out =
      bft::try_decode_message(bft::encode_message(msg));
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("deep"), std::string::npos);
}

TEST(FuzzDecodeRegression, OversizedSignatureRejected) {
  bft::SignedMessage msg = sample_message(test_keys());
  msg.sig.assign(2000, 0xab);  // default max_sig_bytes = 1024
  const bft::DecodeOutcome out =
      bft::try_decode_message(bft::encode_message(msg));
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("signature"), std::string::npos);
}

TEST(FuzzDecodeRegression, FrameSizeCapCheckedBeforeParsing) {
  Bytes huge(1 << 12, 0xff);
  bft::DecodeLimits limits;
  limits.max_frame_bytes = 1 << 10;
  const bft::DecodeOutcome out = bft::try_decode_message(huge, limits);
  ASSERT_FALSE(out);
  EXPECT_NE(out.error.find("size cap"), std::string::npos);
}

// ------------------------------------------------------ module-layer close

TEST(FuzzDecode, SignatureModuleFlagsSenderOnMutatedFrames) {
  const crypto::SignatureSystem keys = test_keys();
  const bft::SignatureModule module(keys.signers[3].get(), keys.verifier);
  const Bytes frame = bft::encode_message(sample_message(keys));

  Rng rng(99);
  MutationSpec spec;
  spec.bitflip_prob = 0.6;
  spec.truncate_prob = 0.2;
  spec.splice_prob = 0.6;

  std::size_t flagged = 0;
  for (int i = 0; i < 300; ++i) {
    const Bytes mutated = mutate_frame(frame, rng, spec);
    const bft::SignatureModule::Inbound in =
        module.authenticate(ProcessId{0}, mutated);
    if (in.ok) continue;  // mutation missed every covered byte
    ++flagged;
    EXPECT_FALSE(in.verdict.valid);
    // Malformed bytes or a broken signature — always a typed class.
    EXPECT_TRUE(in.verdict.kind == bft::FaultKind::kMalformed ||
                in.verdict.kind == bft::FaultKind::kBadSignature ||
                in.verdict.kind == bft::FaultKind::kIdentityMismatch)
        << bft::fault_kind_name(in.verdict.kind);
  }
  EXPECT_GT(flagged, 0u);
}

// ------------------------------------------- STATE_RESP (recovery) frames

/// A realistic certified STATE_RESP body: snapshot, quorum certificate,
/// two suffix slots — every field class the decoder parses.
Bytes sample_state_resp_body(const crypto::SignatureSystem& keys) {
  smr::Snapshot snap;
  snap.slot = 8;
  snap.applied = 14;
  snap.data = {{"alpha", "1"}, {"beta", "2"}};
  for (std::uint64_t id = 1; id <= 14; ++id) snap.committed_ids.insert(id);

  smr::StateResp resp;
  resp.ckpt_slot = 8;
  resp.snapshot = smr::encode_snapshot(snap);
  const crypto::Digest digest = smr::snapshot_digest(resp.snapshot);
  const Bytes preimage = bft::checkpoint_signing_bytes(8, digest);
  for (std::uint32_t i = 0; i < 3; ++i) {
    resp.cert_sigs.emplace_back(i, keys.signers[i]->sign(preimage));
  }
  resp.suffix = {{9, {15, 16}}, {10, {}}};
  const Bytes frame = smr::encode_control_state_resp(resp);
  return Bytes(frame.begin() + 9, frame.end());
}

TEST(FuzzStateResp, EveryTruncationRejectedWithoutUB) {
  const Bytes body = sample_state_resp_body(test_keys());
  for (std::size_t len = 0; len < body.size(); ++len) {
    const Bytes prefix(body.begin(), body.begin() + len);
    // The canonical encoding is exact: no strict prefix is a valid body.
    EXPECT_FALSE(
        smr::try_decode_state_resp(prefix, smr::StateLimits{}).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(FuzzStateResp, MutatedBodiesNeverCorruptInstalledState) {
  const crypto::SignatureSystem keys = test_keys();
  const Bytes body = sample_state_resp_body(keys);
  smr::RecoveryConfig rc;
  rc.n = 4;
  rc.cert_quorum = 3;
  rc.suffix_quorum = 2;
  rc.verifier = keys.verifier.get();

  const MutationSpec specs[] = {
      {.bitflip_prob = 1.0},
      {.truncate_prob = 1.0},
      {.splice_prob = 1.0},
  };
  // The certificate-covered bytes: the only snapshot a module may expose.
  const Bytes original_snapshot = [&] {
    Reader r(body);
    return smr::decode_state_resp(r, smr::StateLimits{}).snapshot;
  }();  // encoded Snapshot bytes (StateResp::snapshot)

  std::size_t decoded = 0, rejected = 0, verified = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    for (const MutationSpec& spec : specs) {
      const Bytes mutated = mutate_frame(body, rng, spec);
      // Decode must never throw or read out of bounds (the sanitizer pass
      // runs this loop under ASan/UBSan).
      const auto out = smr::try_decode_state_resp(mutated, smr::StateLimits{});
      if (!out) {
        ++rejected;
        continue;
      }
      ++decoded;
      // The stronger property: whatever decodes, a fresh RecoveryModule
      // only ever exposes a snapshot whose bytes the certificate covers —
      // i.e. the original ones.  Mutations inside the (opaque) snapshot or
      // certificate fields decode fine but must fail verification.
      smr::RecoveryModule mod{rc};
      mod.ingest(ProcessId{1}, mutated);
      if (const auto best = mod.best_snapshot(0)) {
        ++verified;
        EXPECT_EQ(best->encoded, original_snapshot);
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(verified, 0u);  // some mutations miss every covered byte
}

TEST(FuzzStateResp, DigestFlipInSnapshotRejected) {
  const crypto::SignatureSystem keys = test_keys();
  smr::RecoveryConfig rc;
  rc.n = 4;
  rc.cert_quorum = 3;
  rc.suffix_quorum = 2;
  rc.verifier = keys.verifier.get();

  Bytes body = sample_state_resp_body(keys);
  Reader r(body);
  smr::StateResp resp = smr::decode_state_resp(r, smr::StateLimits{});
  // Flip one bit in every snapshot byte position in turn: each flip moves
  // the digest outside the certificate, so each must be rejected.
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < resp.snapshot.size(); pos += 7) {
    smr::StateResp bad = resp;
    bad.snapshot[pos] ^= 0x80;
    const Bytes frame = smr::encode_control_state_resp(bad);
    smr::RecoveryModule mod{rc};
    if (!mod.ingest(ProcessId{1}, Bytes(frame.begin() + 9, frame.end()))) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, (resp.snapshot.size() + 6) / 7);
}

// ------------------------------------------ the other SMR control frames

/// One control kind: a sample frame and its body decoder, which re-encodes
/// what it decoded as a complete frame.
struct ControlCodec {
  const char* name;
  Bytes frame;  // u64 kControlSlot ‖ u8 kind ‖ body
  std::function<Bytes(Reader&)> reencode;
};

std::vector<ControlCodec> control_codecs(const crypto::SignatureSystem& keys) {
  const smr::StateLimits limits;
  const Bytes sig = keys.signers[1]->sign(Bytes{1, 2, 3});

  smr::CheckpointVote vote;
  vote.slot = 8;
  vote.digest = smr::snapshot_digest(smr::genesis_snapshot());
  vote.sig = sig;
  smr::ClientRequest request;
  request.seq = 3;
  request.key = "alpha";
  request.value = "one";
  request.sig = sig;
  smr::ClientReply reply;
  reply.seq = 3;
  reply.cmd_id = smr::make_client_cmd_id(4, 3);
  reply.slot = 9;
  reply.op = smr::Command::Op::kDel;
  reply.key = "alpha";
  smr::CmdRelay relay;
  relay.client = 4;
  relay.seq = 3;
  relay.key = "beta";
  relay.value = "two";
  relay.sig = sig;

  return {
      {"checkpoint-vote", smr::encode_control_vote(vote),
       [](Reader& r) {
         return smr::encode_control_vote(smr::decode_checkpoint_vote(r));
       }},
      {"state-req", smr::encode_control_state_req(12),
       [](Reader& r) {
         return smr::encode_control_state_req(smr::decode_state_req(r));
       }},
      {"request", smr::encode_control_request(request),
       [](Reader& r) {
         return smr::encode_control_request(smr::decode_client_request(r));
       }},
      {"reply", smr::encode_control_reply(reply),
       [](Reader& r) {
         return smr::encode_control_reply(smr::decode_client_reply(r));
       }},
      {"busy", smr::encode_control_busy(smr::BusyFrame{3, 17}),
       [](Reader& r) {
         return smr::encode_control_busy(smr::decode_busy(r));
       }},
      {"cmd-relay", smr::encode_control_relay(relay),
       [](Reader& r) {
         return smr::encode_control_relay(smr::decode_cmd_relay(r));
       }},
      {"cmd-fetch", smr::encode_control_fetch({5, 9, 12}),
       [limits](Reader& r) {
         return smr::encode_control_fetch(smr::decode_cmd_fetch(r, limits));
       }},
      {"seq-bound", smr::encode_control_seq_bound({5, 8, sig}),
       [](Reader& r) {
         return smr::encode_control_seq_bound(smr::decode_seq_bound(r));
       }},
  };
}

// Every truncated prefix, every single-byte flip and one appended byte of
// each kind's body either raises SerialError or decodes to a frame that
// re-encodes to exactly the mutated input: one frame, one byte string.
TEST(FuzzControlFrames, EveryKindRejectsOrDecodesCanonically) {
  for (const ControlCodec& codec : control_codecs(test_keys())) {
    const Bytes header(codec.frame.begin(), codec.frame.begin() + 9);
    const Bytes body(codec.frame.begin() + 9, codec.frame.end());
    std::size_t decoded = 0, rejected = 0;
    auto check = [&](const Bytes& mutated) {
      Bytes frame = header;
      frame.insert(frame.end(), mutated.begin(), mutated.end());
      try {
        Reader r(mutated);
        EXPECT_EQ(codec.reencode(r), frame) << codec.name;
        ++decoded;
      } catch (const SerialError&) {
        ++rejected;
      }
    };

    check(body);
    ASSERT_EQ(decoded, 1u) << codec.name << " sample does not round-trip";
    for (std::size_t len = 0; len < body.size(); ++len) {
      check(Bytes(body.begin(), body.begin() + len));
    }
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        Bytes flipped = body;
        flipped[pos] ^= mask;
        check(flipped);
      }
    }
    Bytes longer = body;
    longer.push_back(0);
    check(longer);
    EXPECT_GT(rejected, body.size()) << codec.name;
  }
}

}  // namespace
}  // namespace modubft
