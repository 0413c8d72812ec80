// Verified-signature cache (certificate fast path).
//
// The transformed protocol re-examines the same signed messages over and
// over: a message verified once at ingress by the signature module shows up
// again as a member of later certificates, where the certificate analyzer
// would re-run the same signature verification for every containing
// message.  CachingVerifier decorates any Verifier with a bounded LRU of
// verification results so each distinct (signer, signed-bytes, signature)
// triple is verified by the underlying scheme at most once while cached.
//
// Key design — why a hit is sound:
//
//   * The cache key is (signer, SHA-256(message)).  For protocol messages
//     the signed bytes are encode_core(core) ‖ cert_digest(cert), and
//     cert_digest recursively binds every nested member's (core, cert
//     digest, sig) triple, so under collision resistance the key pins the
//     exact verification instance — core, full certificate tree and all.
//   * A hit additionally requires the presented signature to be
//     byte-identical to the cached one.  Without that comparison, a
//     garbage signature for a (signer, digest) pair whose genuine
//     signature was cached earlier would falsely verify.
//
// Both the hit and the miss path therefore return exactly what the wrapped
// verifier would return: caching is observationally equivalent, which the
// cache-on/cache-off equivalence tests assert end to end.
//
// Callers that already hold the message digest (the Certificate memoizes
// its members' signing digests) use verify_digest() and skip the hashing
// entirely — a cache hit then costs one hash-map probe.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/metrics.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

namespace modubft::crypto {

/// Hit/miss accounting, exposed for runtime::RunStats, benchmarks and
/// tests.  A run sums it over the correct processes' caches.
struct VerifyCacheStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  using Self = VerifyCacheStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"cache_hits", &Self::cache_hits, metrics::kSum},
      {"cache_misses", &Self::cache_misses, metrics::kSum},
      {"cache_evictions", &Self::cache_evictions, metrics::kSum},
  };

  double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

/// Bounded-LRU memoizing decorator around a Verifier.  Thread-safe (the
/// cache is shared mutable state even when the callers are const).
class CachingVerifier final : public Verifier {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit CachingVerifier(std::shared_ptr<const Verifier> inner,
                           std::size_t capacity = kDefaultCapacity);

  bool verify(ProcessId signer, const Bytes& message,
              const Signature& sig) const override;

  /// Fast path for callers that already hold SHA-256(message): a hit needs
  /// no hashing at all.  `materialize` produces the message bytes and is
  /// invoked only on a miss; it must materialize exactly the bytes whose
  /// digest was passed.
  bool verify_digest(ProcessId signer, const Digest& message_digest,
                     const Signature& sig,
                     const std::function<Bytes()>& materialize) const;

  VerifyCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  void clear() const;

 private:
  struct Key {
    std::uint32_t signer;
    Digest digest;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // The digest is already uniform; fold in the signer and the first
      // digest bytes.
      std::uint64_t h = k.signer;
      for (int i = 0; i < 8; ++i)
        h = h * 1099511628211ull + k.digest[static_cast<std::size_t>(i)];
      return static_cast<std::size_t>(h);
    }
  };
  using LruList = std::list<Key>;
  struct Entry {
    Signature sig;
    bool ok = false;
    LruList::iterator lru;
  };

  std::shared_ptr<const Verifier> inner_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  mutable LruList lru_;  // front = most recently used
  mutable std::unordered_map<Key, Entry, KeyHash> map_;
  mutable VerifyCacheStats stats_;
};

}  // namespace modubft::crypto
