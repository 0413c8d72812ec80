// Certificate fast path: digest memoization, the verified-signature cache
// and copy-free assembly.  These tests pin the three invariants the
// optimization rests on:
//   1. memoized digests are invalidated by every mutation path, so a cached
//      digest always equals a freshly computed one;
//   2. the CachingVerifier is observationally equivalent to the verifier it
//      wraps — including for adversarial (garbage) signatures — while its
//      LRU bound holds;
//   3. encoded_size() and the wire encoding agree byte-for-byte with the
//      pre-optimization format for every certificate shape.
#include <gtest/gtest.h>

#include <memory>

#include "bft/message.hpp"
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

  /// A CURRENT with an est vector and a nested INIT-quorum certificate —
  /// the deepest shape the happy path produces.
  SignedMessage current_msg() const {
    Certificate inits = Certificate::of({init_msg(0), init_msg(1), init_msg(2)});
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ProcessId{0};
    core.round = Round{1};
    core.est = {Value{100}, Value{101}, Value{102}, std::nullopt};
    return sign(core, std::move(inits));
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
  const crypto::Digest sig_before = cert.member_signing_digest(0);

  cert.mutate_member(0, [](SignedMessage& m) { m.core.init_value = 999; });

  EXPECT_FALSE(cert.digest_cached());
  EXPECT_NE(cert_digest(cert), cert_before);
  EXPECT_NE(cert.member_signing_digest(0), sig_before);

  // The freshly computed memo agrees with first-principles hashing.
  const SignedMessage& m = cert.member(0);
  EXPECT_EQ(cert.member_signing_digest(0),
            crypto::sha256(signing_bytes(m.core, m.cert)));
}

TEST_F(FastPathFixture, MemberSigningDigestMatchesSigningBytes) {
  SignedMessage cur = current_msg();
  Certificate cert = Certificate::of({cur});
  const SignedMessage& m = cert.member(0);
  EXPECT_EQ(cert.member_signing_digest(0),
            crypto::sha256(signing_bytes(m.core, m.cert)));
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

// ------------------------------------------------------- verification cache

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
  (void)b.cert.member_signing_digest(0);
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
