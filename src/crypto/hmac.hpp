// HMAC-SHA256 (RFC 2104).
//
// Backs the fast "signature" scheme used in large simulation sweeps: with a
// trusted per-sender key directory, an HMAC tag is unforgeable by the other
// processes in exactly the way the paper's signature assumption requires.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace modubft::crypto {

/// HMAC-SHA256 under one fixed key.  The key's inner and outer pad blocks
/// are absorbed once, at construction; each tag then resumes from copies
/// of those two states, so it hashes only the data and the inner digest.
/// Immutable after construction, so one instance may serve any number of
/// threads.
class HmacKey {
 public:
  explicit HmacKey(const Bytes& key);

  /// HMAC-SHA256(key, data).
  Digest mac(const Bytes& data) const;

 private:
  Sha256 inner_;  // after absorbing key ⊕ ipad
  Sha256 outer_;  // after absorbing key ⊕ opad
};

/// Computes HMAC-SHA256(key, data) (one-shot: absorbs the pads each call).
Digest hmac_sha256(const Bytes& key, const Bytes& data);

/// Constant-time comparison of two digests (avoids timing side channels;
/// also simply the right idiom for tag verification).
bool digest_equal(const Digest& a, const Digest& b);

}  // namespace modubft::crypto
