// Unit tests for the cryptographic substrate.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/rsa64.hpp"
#include "crypto/sha256.hpp"

namespace modubft::crypto {
namespace {

std::string hex_of(const Digest& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyInput) {
  EXPECT_EQ(hex_of(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_of(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Sha256 ctx;
  ctx.update(data.data(), 100);
  ctx.update(data.data() + 100, 150);
  ctx.update(data.data() + 250, 50);
  EXPECT_EQ(ctx.finish(), sha256(data));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding edge cases around the 64-byte block boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    Bytes data(len, 0x5a);
    Sha256 ctx;
    ctx.update(data);
    Digest streamed = ctx.finish();
    EXPECT_EQ(streamed, sha256(data)) << "len=" << len;
  }
}

TEST(Sha256, ResetReuses) {
  Sha256 ctx;
  ctx.update(bytes_of("abc"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(bytes_of("abc"));
  EXPECT_EQ(ctx.finish(), sha256(bytes_of("abc")));
}

// RFC 4231 test case 2.
TEST(Hmac, Rfc4231Case2) {
  Bytes key = bytes_of("Jefe");
  Bytes data = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = bytes_of("Hi There");
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 3 (block-filling key and data).
TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  Bytes long_key(100, 0x61);
  Bytes data = bytes_of("payload");
  // Must not throw and must be deterministic.
  EXPECT_EQ(hmac_sha256(long_key, data), hmac_sha256(long_key, data));
}

TEST(Hmac, DigestEqualConstantTime) {
  Digest a = sha256(bytes_of("x"));
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Rsa64, ModPow) {
  EXPECT_EQ(rsa64_modpow(2, 10, 1000), 24u);  // 1024 mod 1000
  EXPECT_EQ(rsa64_modpow(7, 0, 13), 1u);
  EXPECT_EQ(rsa64_modpow(0, 5, 13), 0u);
}

TEST(Rsa64, KeyGenerationDeterministic) {
  RsaKeyPair a = rsa64_generate(99);
  RsaKeyPair b = rsa64_generate(99);
  EXPECT_EQ(a.pub.modulus, b.pub.modulus);
  EXPECT_EQ(a.private_exponent, b.private_exponent);
  RsaKeyPair c = rsa64_generate(100);
  EXPECT_NE(a.pub.modulus, c.pub.modulus);
}

TEST(Rsa64, SignVerifyRoundTrip) {
  SignatureSystem sys = Rsa64Scheme{}.make_system(3, 5);
  Bytes msg = bytes_of("decide on round 4");
  Signature sig = sys.signers[1]->sign(msg);
  EXPECT_TRUE(sys.verifier->verify(ProcessId{1}, msg, sig));
}

TEST(Rsa64, RejectsWrongSigner) {
  SignatureSystem sys = Rsa64Scheme{}.make_system(3, 5);
  Bytes msg = bytes_of("hello");
  Signature sig = sys.signers[1]->sign(msg);
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, sig));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{2}, msg, sig));
}

TEST(Rsa64, RejectsTamperedMessage) {
  SignatureSystem sys = Rsa64Scheme{}.make_system(2, 5);
  Bytes msg = bytes_of("original");
  Signature sig = sys.signers[0]->sign(msg);
  Bytes tampered = bytes_of("originaX");
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, tampered, sig));
}

TEST(Rsa64, RejectsTamperedSignature) {
  SignatureSystem sys = Rsa64Scheme{}.make_system(2, 5);
  Bytes msg = bytes_of("original");
  Signature sig = sys.signers[0]->sign(msg);
  sig[0] ^= 0xff;
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, sig));
}

TEST(Rsa64, RejectsGarbageSignatureShapes) {
  SignatureSystem sys = Rsa64Scheme{}.make_system(2, 5);
  Bytes msg = bytes_of("m");
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, {}));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, Bytes(7, 0)));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, Bytes(9, 0)));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{9}, msg, Bytes(8, 0)));
}

TEST(HmacScheme, SignVerifyRoundTrip) {
  SignatureSystem sys = HmacScheme{}.make_system(4, 77);
  Bytes msg = bytes_of("vote CURRENT r3");
  Signature sig = sys.signers[2]->sign(msg);
  EXPECT_TRUE(sys.verifier->verify(ProcessId{2}, msg, sig));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{1}, msg, sig));
}

TEST(HmacScheme, RejectsTampering) {
  SignatureSystem sys = HmacScheme{}.make_system(2, 77);
  Bytes msg = bytes_of("vote");
  Signature sig = sys.signers[0]->sign(msg);
  sig[5] ^= 1;
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, sig));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, bytes_of("votf"),
                                    sys.signers[0]->sign(msg)));
  EXPECT_FALSE(sys.verifier->verify(ProcessId{0}, msg, Bytes(3, 1)));
}

TEST(Schemes, DeterministicAcrossRuns) {
  for (auto* scheme :
       std::initializer_list<const SignatureScheme*>{new Rsa64Scheme,
                                                     new HmacScheme}) {
    SignatureSystem a = scheme->make_system(2, 123);
    SignatureSystem b = scheme->make_system(2, 123);
    Bytes msg = bytes_of("replay");
    EXPECT_EQ(a.signers[0]->sign(msg), b.signers[0]->sign(msg))
        << scheme->name();
    delete scheme;
  }
}

TEST(Schemes, SignerIdsMatchIndices) {
  SignatureSystem sys = HmacScheme{}.make_system(5, 3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sys.signers[i]->id(), (ProcessId{i}));
  }
}

}  // namespace
}  // namespace modubft::crypto
