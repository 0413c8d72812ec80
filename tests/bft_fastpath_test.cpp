// Certificate fast path: digest memoization, the per-instance message
// memo, the verified-signature cache and copy-free assembly.  These tests
// pin the invariants the optimization rests on:
//   1. memoized digests are invalidated by every mutation path and never
//      travel with a copy, so a cached digest always equals a freshly
//      computed one;
//   2. the message memo resolves every copy of a message (direct, nested,
//      self-sent) to one object, interns nothing a check rejected, and
//      decodes exactly what the plain decoder decodes;
//   3. the CachingVerifier is observationally equivalent to the verifier it
//      wraps — including for adversarial (garbage) signatures and for a
//      signer's own signatures entered as they are made — while its LRU
//      bound holds;
//   4. encoded_size() and the wire encoding agree byte-for-byte with the
//      pre-optimization format for every certificate shape.
#include <gtest/gtest.h>

#include <memory>

#include "bft/analyzer.hpp"
#include "bft/message.hpp"
#include "bft/modules.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/verify_cache.hpp"

namespace modubft::bft {
namespace {

constexpr std::uint32_t kN = 4;

class FastPathFixture : public ::testing::Test {
 protected:
  FastPathFixture() : sys_(crypto::HmacScheme{}.make_system(kN, 2026)) {}

  SignedMessage sign(MessageCore core, Certificate cert = {}) const {
    SignedMessage msg;
    msg.core = std::move(core);
    msg.cert = std::move(cert);
    msg.sig = sys_.signers[msg.core.sender.value]->sign(
        signing_bytes(msg.core, msg.cert));
    return msg;
  }

  SignedMessage init_msg(std::uint32_t sender) const {
    MessageCore core;
    core.kind = BftKind::kInit;
    core.sender = ProcessId{sender};
    core.round = Round{0};
    core.init_value = 100 + sender;
    return sign(core);
  }

  SignedMessage next_msg(std::uint32_t sender, std::uint32_t round,
                         Certificate cert = {}) const {
    MessageCore core;
    core.kind = BftKind::kNext;
    core.sender = ProcessId{sender};
    core.round = Round{round};
    return sign(core, std::move(cert));
  }

  /// The round-1 CURRENT core of `sender` for the vector current_msg()
  /// carries.
  static MessageCore current_core(std::uint32_t sender) {
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ProcessId{sender};
    core.round = Round{1};
    core.est = {Value{100}, Value{101}, Value{102}, std::nullopt};
    return core;
  }

  /// A CURRENT with an est vector and a nested INIT-quorum certificate —
  /// the deepest shape the happy path produces.
  SignedMessage current_msg() const {
    Certificate inits = Certificate::of({init_msg(0), init_msg(1), init_msg(2)});
    return sign(current_core(0), std::move(inits));
  }

  std::shared_ptr<crypto::CachingVerifier> make_cache() const {
    return std::make_shared<crypto::CachingVerifier>(sys_.verifier);
  }

  crypto::SignatureSystem sys_;
};

// ------------------------------------------------------------ digest cache

TEST_F(FastPathFixture, CertDigestIsMemoized) {
  Certificate cert = Certificate::of({init_msg(0), init_msg(1)});
  EXPECT_FALSE(cert.digest_cached());
  const crypto::Digest first = cert_digest(cert);
  EXPECT_TRUE(cert.digest_cached());
  EXPECT_EQ(cert_digest(cert), first);  // stable across calls
}

TEST_F(FastPathFixture, AddInvalidatesDigest) {
  Certificate cert = Certificate::of({init_msg(0)});
  const crypto::Digest before = cert_digest(cert);
  cert.add(init_msg(1));
  EXPECT_FALSE(cert.digest_cached());
  EXPECT_NE(cert_digest(cert), before);
}

TEST_F(FastPathFixture, ReplaceInvalidatesDigest) {
  Certificate cert = Certificate::of({init_msg(0), init_msg(1)});
  const crypto::Digest before = cert_digest(cert);
  cert.replace(1, init_msg(2));
  EXPECT_FALSE(cert.digest_cached());
  EXPECT_NE(cert_digest(cert), before);
}

TEST_F(FastPathFixture, MutateMemberInvalidatesDigestAndSigningDigest) {
  Certificate cert = Certificate::of({init_msg(0), init_msg(1)});
  const crypto::Digest cert_before = cert_digest(cert);
  const crypto::Digest sig_before = cert.member(0).signing_digest();

  cert.mutate_member(0, [](SignedMessage& m) {
    // The copy handed to the edit carries no memo from the original.
    EXPECT_FALSE(m.signing_digest_memo.has_value());
    m.core.init_value = 999;
  });

  EXPECT_FALSE(cert.digest_cached());
  EXPECT_NE(cert_digest(cert), cert_before);
  EXPECT_NE(cert.member(0).signing_digest(), sig_before);

  // The freshly computed memo agrees with first-principles hashing of the
  // edited contents.
  const SignedMessage& m = cert.member(0);
  EXPECT_EQ(m.signing_digest(), crypto::sha256(signing_bytes(m.core, m.cert)));
}

TEST_F(FastPathFixture, MemberSigningDigestMatchesSigningBytes) {
  SignedMessage cur = current_msg();
  Certificate cert = Certificate::of({cur});
  const SignedMessage& m = cert.member(0);
  EXPECT_EQ(m.signing_digest(), crypto::sha256(signing_bytes(m.core, m.cert)));
}

TEST_F(FastPathFixture, CopiesDoNotInheritTheSigningDigest) {
  // Copying and assigning both drop the memo, so a copy edited afterwards
  // hashes its own contents.
  const SignedMessage original = init_msg(2);
  (void)original.signing_digest();
  ASSERT_TRUE(original.signing_digest_memo.has_value());

  SignedMessage copy = original;
  EXPECT_FALSE(copy.signing_digest_memo.has_value());
  copy.core.init_value += 1;
  EXPECT_EQ(copy.signing_digest(),
            crypto::sha256(signing_bytes(copy.core, copy.cert)));
  EXPECT_NE(copy.signing_digest(), original.signing_digest());

  SignedMessage assigned = init_msg(3);
  (void)assigned.signing_digest();
  assigned = original;
  EXPECT_FALSE(assigned.signing_digest_memo.has_value());
  EXPECT_EQ(assigned.signing_digest(), original.signing_digest());
}

TEST_F(FastPathFixture, PruneInvarianceSurvivesMemoization) {
  // Memoize, prune, and check the pruning invariant still holds (the
  // pruned digest must equal the memoized inline digest).
  Certificate cert = Certificate::of({next_msg(0, 1), next_msg(1, 1)});
  const crypto::Digest inline_digest = cert_digest(cert);
  Certificate pruned = prune(cert);
  EXPECT_TRUE(pruned.pruned);
  EXPECT_EQ(cert_digest(pruned), inline_digest);
}

TEST_F(FastPathFixture, SharedMembersShareDigestWork) {
  // Copy-free assembly: copying a certificate shares the member pointers.
  SignedMessage m = current_msg();
  Certificate a = Certificate::of({m});
  Certificate b = a;  // shares members
  EXPECT_EQ(a.member_ptr(0).get(), b.member_ptr(0).get());
  EXPECT_EQ(cert_digest(a), cert_digest(b));
}

// ------------------------------------------------------------ message memo

TEST_F(FastPathFixture, EveryCopyOfAMessageResolvesToOneObject) {
  // p3's instance: p0's CURRENT arrives directly, then inside the relays of
  // p1, p2 and p3 itself.  Every copy is the one object whose signing
  // digest the direct copy's check computed, so it is computed once.
  auto cache = make_cache();
  SignatureModule module(sys_.signers[3].get(), cache);
  const SignedMessage current = current_msg();
  const SignatureModule::Inbound direct =
      module.authenticate(ProcessId{0}, encode_message(current));
  ASSERT_TRUE(direct.ok);
  module.remember(direct.fresh);
  EXPECT_TRUE(direct.msg->signing_digest_memo.has_value());
  EXPECT_EQ(module.memo().stats().hits, 0u);
  EXPECT_EQ(module.memo().stats().misses, 4u);  // the frame and its 3 INITs
  EXPECT_EQ(module.memo().size(), 4u);

  for (std::uint32_t relayer : {1u, 2u}) {
    const SignedMessage relay =
        sign(current_core(relayer), Certificate::of({current}));
    const SignatureModule::Inbound in =
        module.authenticate(ProcessId{relayer}, encode_message(relay));
    ASSERT_TRUE(in.ok);
    EXPECT_EQ(in.msg->cert.member_ptr(0).get(), direct.msg.get());
  }
  // p3's own relay comes back to it byte for byte.
  Certificate adopted;
  adopted.add(direct.msg);
  const Bytes own = module.sign(current_core(3), adopted);
  const SignatureModule::Inbound self = module.authenticate(ProcessId{3}, own);
  ASSERT_TRUE(self.ok);
  EXPECT_EQ(self.msg->cert.member_ptr(0).get(), direct.msg.get());

  // Two relay frames missed and found the CURRENT inside; the own relay
  // hit as a whole frame.
  EXPECT_EQ(module.memo().stats().hits, 3u);
  EXPECT_EQ(module.memo().stats().misses, 6u);
  EXPECT_EQ(direct.msg->signing_digest(),
            crypto::sha256(signing_bytes(current.core, current.cert)));

  // The analyzer checks the nested CURRENT through that digest: a hit.
  const CertAnalyzer analyzer(kN, 3, cache);
  const crypto::VerifyCacheStats before = cache->stats();
  EXPECT_TRUE(analyzer.current_wf(*self.msg));
  EXPECT_GT(cache->stats().cache_hits, before.cache_hits);
}

TEST_F(FastPathFixture, ReusedSignatureOverOtherBytesMissesAndFails) {
  auto cache = make_cache();
  SignatureModule module(sys_.signers[3].get(), cache);
  const SignedMessage init = init_msg(1);
  const Bytes genuine = encode_message(init);
  const SignatureModule::Inbound accepted =
      module.authenticate(ProcessId{1}, genuine);
  ASSERT_TRUE(accepted.ok);
  module.remember(accepted.fresh);

  SignedMessage forged = init;  // p1's genuine signature, another body
  forged.core.init_value += 1;
  const MessageMemo::Stats memo_before = module.memo().stats();
  const crypto::VerifyCacheStats cache_before = cache->stats();
  const SignatureModule::Inbound in =
      module.authenticate(ProcessId{1}, encode_message(forged));
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kBadSignature);
  EXPECT_EQ(module.memo().stats().hits, memo_before.hits);
  EXPECT_EQ(module.memo().stats().misses, memo_before.misses + 1);
  EXPECT_EQ(module.memo().size(), 1u);
  // The scheme ran on it: a cache miss, never a hit on the genuine entry.
  EXPECT_EQ(cache->stats().cache_hits, cache_before.cache_hits);
  EXPECT_EQ(cache->stats().cache_misses, cache_before.cache_misses + 1);
}

TEST_F(FastPathFixture, RejectedFramesAddNoEntry) {
  SignatureModule module(sys_.signers[3].get(), make_cache());
  const Bytes frame = encode_message(current_msg());

  const Bytes truncated(frame.begin(), frame.end() - 1);
  Bytes non_canonical = frame;
  // The value slot of est[3], a null entry, must be zero (core layout:
  // u32 length, kind, sender, round, init value, est length, then 9 bytes
  // per entry).
  non_canonical[4 + 1 + 4 + 4 + 8 + 4 + 3 * 9 + 1] = 7;
  Bytes bad_sig = frame;
  bad_sig.back() ^= 0x01;

  const struct {
    const char* what;
    ProcessId channel;
    const Bytes* bytes;
    FaultKind kind;
  } rejected[] = {
      {"undecodable", ProcessId{0}, &truncated, FaultKind::kMalformed},
      {"non-canonical", ProcessId{0}, &non_canonical, FaultKind::kMalformed},
      {"identity", ProcessId{1}, &frame, FaultKind::kIdentityMismatch},
      {"signature", ProcessId{0}, &bad_sig, FaultKind::kBadSignature},
  };
  for (const auto& r : rejected) {
    const SignatureModule::Inbound in =
        module.authenticate(r.channel, *r.bytes);
    EXPECT_FALSE(in.ok) << r.what;
    EXPECT_EQ(in.verdict.kind, r.kind) << r.what;
    module.remember(in.fresh);
    EXPECT_EQ(module.memo().size(), 0u) << r.what;
  }
  // An accepted frame is interned only when the pipeline keeps it.
  const SignatureModule::Inbound in = module.authenticate(ProcessId{0}, frame);
  EXPECT_TRUE(in.ok);
  EXPECT_EQ(module.memo().size(), 0u);
  module.remember(in.fresh);
  EXPECT_EQ(module.memo().size(), 4u);
}

TEST_F(FastPathFixture, OwnSignaturesAreNeverVerified) {
  auto cache = make_cache();
  SignatureModule module(sys_.signers[3].get(), cache);
  MessageCore core;
  core.kind = BftKind::kInit;
  core.sender = ProcessId{3};
  core.init_value = 5;
  const Bytes own = module.sign(core, Certificate{});

  // The copy of its own broadcast hits the entry made at signing.
  EXPECT_TRUE(module.authenticate(ProcessId{3}, own).ok);
  EXPECT_EQ(cache->stats().cache_hits, 1u);
  EXPECT_EQ(cache->stats().cache_misses, 0u);

  // A corrupted copy carries other bytes: it misses and fails.
  Bytes corrupted = own;
  corrupted.back() ^= 0x01;
  const SignatureModule::Inbound in =
      module.authenticate(ProcessId{3}, corrupted);
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.verdict.kind, FaultKind::kBadSignature);
  EXPECT_EQ(cache->stats().cache_misses, 1u);

  // The entry is the signer's: a message claiming another sender but
  // signed with p3's key still fails.
  core.sender = ProcessId{2};
  const Bytes claimed = module.sign(core, Certificate{});
  EXPECT_EQ(module.authenticate(ProcessId{2}, claimed).verdict.kind,
            FaultKind::kBadSignature);
}

TEST_F(FastPathFixture, MemoDecodeMatchesPlainDecodeAtTheDepthCap) {
  // A message interned at depth 0 and met again at the deepest level the
  // decoder allows resolves to the interned object; one level deeper, the
  // memo decode fails with the plain decoder's error.
  const SignedMessage leaf = next_msg(0, 1);
  MessageMemo memo;
  const MemberPtr interned = std::make_shared<const SignedMessage>(leaf);
  memo.intern(encode_message(leaf), interned);

  const DecodeLimits limits;
  auto wrap = [&](std::uint32_t levels) {
    SignedMessage msg = leaf;
    for (std::uint32_t i = 0; i < levels; ++i)
      msg = next_msg(0, 1, Certificate::of({msg}));
    return encode_message(msg);
  };

  const Bytes deepest = wrap(limits.max_depth);
  const MessageMemo::Decoded ok = memo.decode(deepest);
  const SignedMessage* m = ok.msg.get();
  for (std::uint32_t i = 0; i < limits.max_depth; ++i) m = &m->cert.member(0);
  EXPECT_EQ(m, interned.get());
  EXPECT_EQ(encode_message(*ok.msg), encode_message(decode_message(deepest)));
  EXPECT_EQ(ok.fresh.size(), limits.max_depth);

  const Bytes too_deep = wrap(limits.max_depth + 1);
  const DecodeOutcome plain = try_decode_message(too_deep);
  ASSERT_FALSE(plain);
  try {
    (void)memo.decode(too_deep);
    ADD_FAILURE() << "memo decode accepted a frame beyond the depth cap";
  } catch (const SerialError& e) {
    EXPECT_EQ(std::string(e.what()), plain.error);
  }
}

// ------------------------------------------------------- verification cache

TEST_F(FastPathFixture, RecordedSignatureHitsAndOthersStillMiss) {
  auto cache = make_cache();
  const SignedMessage m = init_msg(2);
  const Bytes preimage = signing_bytes(m.core, m.cert);
  const crypto::Digest d = crypto::sha256(preimage);
  cache->record_signed(m.core.sender, d, m.sig);
  EXPECT_EQ(cache->stats().cache_hits + cache->stats().cache_misses, 0u);

  int materialized = 0;
  auto materialize = [&]() {
    ++materialized;
    return preimage;
  };
  EXPECT_TRUE(cache->verify_digest(m.core.sender, d, m.sig, materialize));
  EXPECT_EQ(materialized, 0);
  EXPECT_EQ(cache->stats().cache_hits, 1u);

  crypto::Signature garbage = m.sig;
  garbage[0] ^= 0xff;
  EXPECT_FALSE(cache->verify_digest(m.core.sender, d, garbage, materialize));
  EXPECT_EQ(materialized, 1);
  EXPECT_EQ(cache->stats().cache_misses, 1u);
}

TEST_F(FastPathFixture, CacheHitsOnRepeatAndStaysSound) {
  auto cache =
      std::make_shared<crypto::CachingVerifier>(sys_.verifier, 64);
  SignedMessage m = init_msg(1);
  const Bytes preimage = signing_bytes(m.core, m.cert);

  EXPECT_TRUE(cache->verify(m.core.sender, preimage, m.sig));
  EXPECT_TRUE(cache->verify(m.core.sender, preimage, m.sig));
  EXPECT_EQ(cache->stats().cache_hits, 1u);
  EXPECT_EQ(cache->stats().cache_misses, 1u);

  // Soundness: a garbage signature under the SAME (signer, digest) key must
  // not ride the cached positive verdict.
  crypto::Signature garbage = m.sig;
  garbage[0] ^= 0xff;
  EXPECT_FALSE(cache->verify(m.core.sender, preimage, garbage));
  // And the genuine signature still verifies afterwards.
  EXPECT_TRUE(cache->verify(m.core.sender, preimage, m.sig));
}

TEST_F(FastPathFixture, CacheMatchesInnerVerifierOnWrongSigner) {
  auto cache =
      std::make_shared<crypto::CachingVerifier>(sys_.verifier, 64);
  SignedMessage m = init_msg(1);
  const Bytes preimage = signing_bytes(m.core, m.cert);
  EXPECT_FALSE(cache->verify(ProcessId{2}, preimage, m.sig));
  EXPECT_FALSE(cache->verify(ProcessId{2}, preimage, m.sig));
  EXPECT_EQ(cache->verify(ProcessId{2}, preimage, m.sig),
            sys_.verifier->verify(ProcessId{2}, preimage, m.sig));
}

TEST_F(FastPathFixture, VerifyDigestSkipsMaterializeOnHit) {
  auto cache =
      std::make_shared<crypto::CachingVerifier>(sys_.verifier, 64);
  SignedMessage m = init_msg(0);
  const Bytes preimage = signing_bytes(m.core, m.cert);
  const crypto::Digest d = crypto::sha256(preimage);

  int materialized = 0;
  auto materialize = [&]() {
    ++materialized;
    return preimage;
  };
  EXPECT_TRUE(cache->verify_digest(m.core.sender, d, m.sig, materialize));
  EXPECT_EQ(materialized, 1);
  EXPECT_TRUE(cache->verify_digest(m.core.sender, d, m.sig, materialize));
  EXPECT_EQ(materialized, 1);  // hit: the message bytes were never rebuilt
}

TEST_F(FastPathFixture, LruEvictsLeastRecentlyUsed) {
  auto cache = std::make_shared<crypto::CachingVerifier>(sys_.verifier, 2);
  SignedMessage a = init_msg(0), b = init_msg(1), c = init_msg(2);
  const Bytes pa = signing_bytes(a.core, a.cert);
  const Bytes pb = signing_bytes(b.core, b.cert);
  const Bytes pc = signing_bytes(c.core, c.cert);

  EXPECT_TRUE(cache->verify(a.core.sender, pa, a.sig));  // miss {a}
  EXPECT_TRUE(cache->verify(b.core.sender, pb, b.sig));  // miss {a,b}
  EXPECT_TRUE(cache->verify(a.core.sender, pa, a.sig));  // hit, a is MRU
  EXPECT_TRUE(cache->verify(c.core.sender, pc, c.sig));  // miss, evicts b
  EXPECT_EQ(cache->stats().cache_evictions, 1u);
  EXPECT_EQ(cache->size(), 2u);

  // b was evicted (miss); a survived (hit).  Correctness is unaffected.
  crypto::VerifyCacheStats before = cache->stats();
  EXPECT_TRUE(cache->verify(b.core.sender, pb, b.sig));
  EXPECT_EQ(cache->stats().cache_misses, before.cache_misses + 1);
  EXPECT_TRUE(cache->verify(a.core.sender, pa, a.sig));
}

TEST_F(FastPathFixture, ClearResetsEntriesAndCounters) {
  auto cache = std::make_shared<crypto::CachingVerifier>(sys_.verifier, 8);
  SignedMessage m = init_msg(3);
  const Bytes p = signing_bytes(m.core, m.cert);
  EXPECT_TRUE(cache->verify(m.core.sender, p, m.sig));
  EXPECT_EQ(cache->size(), 1u);
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->stats().cache_misses, 0u);
  // A cleared cache re-verifies from scratch, and correctly so.
  EXPECT_TRUE(cache->verify(m.core.sender, p, m.sig));
  EXPECT_EQ(cache->stats().cache_misses, 1u);
}

// ------------------------------------------------- sizes and wire identity

TEST_F(FastPathFixture, EncodedSizeMatchesEncodingForAllShapes) {
  // empty cert
  SignedMessage flat = init_msg(0);
  EXPECT_EQ(encoded_size(flat), encode_message(flat).size());

  // nested cert
  SignedMessage cur = current_msg();
  EXPECT_EQ(encoded_size(cur), encode_message(cur).size());

  // doubly nested + pruned inner cert
  Certificate nexts = Certificate::of({next_msg(0, 1), next_msg(1, 1)});
  SignedMessage vote = next_msg(2, 2, nexts);
  SignedMessage pruned_vote{vote.core, prune(vote.cert), vote.sig};
  Certificate outer = Certificate::of({cur, vote, pruned_vote});
  SignedMessage top = sign(
      [] {
        MessageCore core;
        core.kind = BftKind::kDecide;
        core.sender = ProcessId{3};
        core.round = Round{2};
        core.est = {Value{100}, Value{101}, Value{102}, std::nullopt};
        return core;
      }(),
      outer);
  EXPECT_EQ(encoded_size(top), encode_message(top).size());
}

TEST_F(FastPathFixture, EncodingUnchangedByDigestMemoization) {
  // Encoding must not depend on whether digests were memoized before or
  // after: the wire format carries no cache state.
  SignedMessage a = current_msg();
  SignedMessage b = a;
  const Bytes cold = encode_message(a);
  (void)cert_digest(b.cert);
  (void)b.cert.member(0).signing_digest();
  EXPECT_EQ(encode_message(b), cold);
}

TEST_F(FastPathFixture, DecodeReencodeRoundTripIsByteIdentical) {
  SignedMessage msg = current_msg();
  const Bytes wire = encode_message(msg);
  SignedMessage back = decode_message(wire);
  EXPECT_EQ(encode_message(back), wire);
  EXPECT_EQ(encoded_size(back), wire.size());
}

// ------------------------------------------------------------ Reader views

TEST(ReaderNested, CarvesAliasedSubRange) {
  Writer w;
  {
    Writer inner;
    inner.u32(7);
    inner.u8(9);
    w.bytes(std::move(inner).take());
  }
  w.u32(42);
  Bytes buf = std::move(w).take();

  Reader r(buf);
  Reader sub = r.nested();
  EXPECT_EQ(sub.remaining(), 5u);
  EXPECT_EQ(sub.u32(), 7u);
  EXPECT_EQ(sub.u8(), 9u);
  EXPECT_TRUE(sub.at_end());
  // The outer reader advanced past the nested range.
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_TRUE(r.at_end());
}

TEST(ReaderNested, RejectsTruncatedLengthPrefix) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_THROW(r.nested(), SerialError);
}

}  // namespace
}  // namespace modubft::bft
