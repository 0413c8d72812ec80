// Configuration and resilience bounds of the transformed protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "fd/muteness_fd.hpp"

namespace modubft::crypto {
class CachingVerifier;
class VerifyPool;
}  // namespace modubft::crypto

namespace modubft::bft {

/// Certification-service bound C: the maximum number of faulty processes
/// the certification mechanism copes with.  "Usual certification mechanisms
/// require C = ⌊(n−1)/3⌋" (paper footnote 2) — majority tests over sets of
/// signed messages need n > 3C.
inline std::uint32_t default_certification_bound(std::uint32_t n) {
  MODUBFT_EXPECTS(n >= 1);
  return (n - 1) / 3;
}

/// The paper's resilience bound: F ≤ min(⌊(n−1)/2⌋, C).
inline std::uint32_t max_tolerated_faults(
    std::uint32_t n, std::optional<std::uint32_t> certification_bound = {}) {
  const std::uint32_t c =
      certification_bound.value_or(default_certification_bound(n));
  return std::min((n - 1) / 2, c);
}

struct BftConfig {
  std::uint32_t n = 4;

  /// F — number of arbitrary faults the run must tolerate.  Quorums are
  /// n − F.  Must satisfy f ≤ max_tolerated_faults(n).
  std::uint32_t f = 1;

  /// Certificate-growth control: prune (digest) the certificates of NEXT
  /// messages nested inside outgoing certificates (see message.hpp).  The
  /// §5.1 checks never inspect those bodies, so pruning is behaviour-
  /// preserving; turning it off reproduces the naive exponential growth
  /// (experiment E6).
  bool prune_nested_next = true;

  /// Certification-service bound override.  By default C = ⌊(n−1)/3⌋
  /// (footnote 2); deployments with a stronger external certification
  /// service may raise it, up to the protocol's own ⌊(n−1)/2⌋ limit.
  std::optional<std::uint32_t> certification_bound;

  /// Certificate fast path: share one bounded LRU of verified signatures
  /// between the signature module and the certificate analyzer, so a
  /// member already verified (at ingress or inside an earlier certificate)
  /// is never re-verified by the signature scheme.  Observationally
  /// equivalent to verification without the cache — a hit requires the
  /// same signer, the same signed bytes (pinned by SHA-256) and a
  /// byte-identical signature.  The LRU holds
  /// crypto::CachingVerifier::kDefaultCapacity entries.
  bool verify_cache = true;

  /// Externally-owned verified-signature cache.  When set (and
  /// verify_cache is true) the process uses it instead of constructing a
  /// private one, so the cache — and its hit/miss statistics — survive
  /// across consensus instances.  The pipelined SMR replica shares one
  /// cache across all of its slots this way.  Must wrap the same
  /// underlying verifier the process is given.
  std::shared_ptr<crypto::CachingVerifier> shared_verify_cache;

  /// Parallel verification pool shared by the signature module and the
  /// certificate analyzer.  nullptr = verify serially on the actor's
  /// thread (the default, and the only configuration whose execution
  /// order is deterministic — the sim substrate uses a pool of size 0,
  /// which is synchronous, when it wants pool accounting).  One pool is
  /// typically shared by every process of a run.
  std::shared_ptr<crypto::VerifyPool> verify_pool;

  /// Period of the ◇M / faulty-coordinator poll.
  SimTime suspicion_poll_period = 10'000;

  fd::MutenessConfig muteness{};

  /// If true (default), a decided process halts, as in the paper.  When
  /// false, the process keeps running its detection modules after deciding
  /// (audit mode): late traffic is still authenticated and monitored, so
  /// every delivered misbehaviour is eventually recorded even if the group
  /// decided before the faulty frames landed.
  bool stop_on_decide = true;

  std::uint32_t quorum() const { return n - f; }

  void validate() const {
    MODUBFT_EXPECTS(n >= 2);
    MODUBFT_EXPECTS(f <= max_tolerated_faults(n, certification_bound));
  }
};

/// Vector Validity floor: the decided vector carries at least
/// ρ = n − 2F entries from correct processes (paper §1; ρ ≥ 1 follows from
/// the resilience bound).
inline std::uint32_t vector_validity_floor(const BftConfig& cfg) {
  return cfg.n - 2 * cfg.f;
}

}  // namespace modubft::bft
