#include "crypto/verify_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace modubft::crypto {

CachingVerifier::CachingVerifier(std::shared_ptr<const Verifier> inner,
                                 std::size_t capacity)
    : inner_(std::move(inner)),
      capacity_(std::max<std::size_t>(1, capacity)) {
  MODUBFT_EXPECTS(inner_ != nullptr);
}

bool CachingVerifier::verify(ProcessId signer, const Bytes& message,
                             const Signature& sig) const {
  return verify_digest(signer, sha256(message), sig,
                       [&message] { return message; });
}

bool CachingVerifier::verify_digest(
    ProcessId signer, const Digest& message_digest, const Signature& sig,
    const std::function<Bytes()>& materialize) const {
  const Key key{signer.value, message_digest};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.sig == sig) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.ok;
    }
    ++stats_.cache_misses;
  }
  // Verify outside the lock: the underlying scheme is the expensive part.
  const bool ok = inner_->verify(signer, materialize(), sig);
  std::lock_guard<std::mutex> lock(mu_);
  store(key, sig, ok);
  return ok;
}

void CachingVerifier::record_signed(ProcessId signer,
                                    const Digest& message_digest,
                                    const Signature& sig) const {
  std::lock_guard<std::mutex> lock(mu_);
  store(Key{signer.value, message_digest}, sig, true);
}

void CachingVerifier::store(const Key& key, const Signature& sig,
                            bool ok) const {
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Same (signer, digest) seen with a different signature blob — keep the
    // latest.  Either entry alone is sound; we just can't keep both under
    // one key.
    it->second.sig = sig;
    it->second.ok = ok;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{sig, ok, lru_.begin()});
  if (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

VerifyCacheStats CachingVerifier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CachingVerifier::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void CachingVerifier::clear() const {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  stats_ = VerifyCacheStats{};
}

}  // namespace modubft::crypto
