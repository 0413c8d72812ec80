// Replica-side client service: admission, duplicate suppression, replies.
//
// The client/service layer (docs/CLIENT.md) turns the SMR harness's
// preloaded workload into a live request path.  Clients are ordinary
// substrate processes with ids in [n, n + num_clients); a replica in
// client mode accepts REQUEST control frames from them, admits commands
// into its pending set under a hard bound (shedding with BUSY beyond it),
// relays admitted bodies to its peers (CMD_RELAY) so every replica can
// propose and commit them, and answers every commit with a REPLY to the
// owning client.  Exactly-once is enforced by the committed-id set — a
// retried request whose command already committed is answered from the
// per-client reply cache instead of being re-admitted — and the cache
// itself is part of the certified snapshot, so the contract survives a
// crash/restart (PR 6 recovery).
//
// Every structure here is a deterministic function of (committed log,
// bounded cache policy), which is what lets the reply cache live inside
// the checkpoint digest: correct replicas at the same frontier carry
// byte-identical client tables.
#pragma once

#include <cstdint>

#include "common/metrics.hpp"
#include "sim/actor.hpp"

namespace modubft::smr {

/// Cached replies retained per client (oldest seq evicted first).  A
/// client's outstanding window must stay at or below this bound for
/// duplicate replay to be complete.
inline constexpr std::uint32_t kReplyCacheDepth = 64;

/// Knobs for the replica-side client service.  num_clients == 0 disables
/// the whole layer: no client control frames are sent or accepted, and
/// the wire traffic is byte-identical to a pre-client build.
struct ClientServiceConfig {
  /// Clients occupy process ids [n, n + num_clients).  0 = off.
  std::uint32_t num_clients = 0;

  /// Direct-admission bound: REQUESTs beyond this many pending (admitted,
  /// not yet committed) client commands are shed with a BUSY frame.  The
  /// deterministic load-shedding that keeps a flooded replica's memory
  /// bounded instead of OOMing.
  std::uint32_t max_pending = 64;

  /// Authenticated mode (Byzantine backend): REQUEST and CMD_RELAY bodies
  /// must carry a valid client signature over the command preimage, and
  /// CLIENT_DONE / SEQ_BOUND frames are accepted from any sender when
  /// their signature verifies.  Off under the crash model, where forgery
  /// is outside the fault model and clients carry no keys.
  bool authenticate = false;

  /// Commit-eligibility window: a decided client id (c, s) joins a batch
  /// only when s ≤ committed-seq-count(c) + seq_window, evaluated against
  /// the pre-slot committed state — a deterministic bound on how far
  /// beyond a client's committed history a decided seq may run.  Must be
  /// at least the client's outstanding window (or genuine commands get
  /// deferred, which is safe but slow); it caps how many fabricated
  /// future seqs per client a Byzantine proposer can park the frontier on.
  std::uint32_t seq_window = 16;
};

/// Client-service observability, surfaced through runtime::RunStats as
/// client_* keys.
struct ClientServiceStats {
  std::uint64_t requests = 0;    ///< REQUEST frames accepted for handling
  std::uint64_t duplicates = 0;  ///< suppressed (committed or in flight)
  std::uint64_t replays = 0;     ///< cached replies re-sent to retriers
  std::uint64_t admitted = 0;    ///< commands admitted into pending
  std::uint64_t sheds = 0;       ///< REQUESTs rejected with BUSY (one each)
  std::uint64_t relays_sent = 0;       ///< CMD_RELAY broadcasts (admitter)
  std::uint64_t relays_received = 0;   ///< CMD_RELAY bodies ingested
  std::uint64_t relays_dropped = 0;    ///< relayed bodies over capacity
  std::uint64_t fetches_sent = 0;      ///< CMD_FETCH broadcasts
  std::uint64_t fetches_served = 0;    ///< bodies answered to fetchers
  std::uint64_t replies_sent = 0;      ///< REPLY frames sent on commit
  std::uint64_t parked_commits = 0;    ///< frontier stalls awaiting bodies
  std::uint64_t rejects = 0;           ///< malformed/out-of-range frames
  std::uint64_t queue_peak = 0;        ///< max pending observed
  std::uint64_t auth_rejects = 0;      ///< bodies/frames with bad client sig
  std::uint64_t ineligible_skips = 0;  ///< decided ids outside window/bound
  std::uint64_t origin_drops = 0;      ///< relays over the per-origin cap
  std::uint64_t bounds_recorded = 0;   ///< verified seq bounds accepted

  // The shed bound is per replica, so the run keeps the largest
  // queue_peak: the number the admission cap must dominate.
  using Self = ClientServiceStats;
  static constexpr metrics::Counter<Self> kCounters[] = {
      {"client_requests", &Self::requests, metrics::kSum},
      {"client_duplicates", &Self::duplicates, metrics::kSum},
      {"client_replays", &Self::replays, metrics::kSum},
      {"client_admitted", &Self::admitted, metrics::kSum},
      {"client_sheds", &Self::sheds, metrics::kSum},
      {"client_relays_sent", &Self::relays_sent, metrics::kSum},
      {"client_relays_received", &Self::relays_received, metrics::kSum},
      {"client_relays_dropped", &Self::relays_dropped, metrics::kSum},
      {"client_fetches_sent", &Self::fetches_sent, metrics::kSum},
      {"client_fetches_served", &Self::fetches_served, metrics::kSum},
      {"client_replies_sent", &Self::replies_sent, metrics::kSum},
      {"client_parked_commits", &Self::parked_commits, metrics::kSum},
      {"client_rejects", &Self::rejects, metrics::kSum},
      {"client_queue_peak", &Self::queue_peak, metrics::kMax},
      {"client_auth_rejects", &Self::auth_rejects, metrics::kSum},
      {"client_ineligible_skips", &Self::ineligible_skips, metrics::kSum},
      {"client_origin_drops", &Self::origin_drops, metrics::kSum},
      {"client_bounds_recorded", &Self::bounds_recorded, metrics::kSum},
  };
};

}  // namespace modubft::smr
