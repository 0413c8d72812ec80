#include "crypto/hmac.hpp"

namespace modubft::crypto {

HmacKey::HmacKey(const Bytes& key) {
  constexpr std::size_t kBlock = 64;

  // Keys longer than one block are hashed first, per RFC 2104.
  Bytes k = key;
  if (k.size() > kBlock) {
    Digest d = sha256(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0);

  std::uint8_t ipad[kBlock], opad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad, kBlock);
  outer_.update(opad, kBlock);
}

Digest HmacKey::mac(const Bytes& data) const {
  Sha256 inner = inner_;
  inner.update(data);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const Bytes& key, const Bytes& data) {
  return HmacKey(key).mac(data);
}

bool digest_equal(const Digest& a, const Digest& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace modubft::crypto
