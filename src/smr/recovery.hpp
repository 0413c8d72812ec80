// RecoveryModule: the untrusting client side of state transfer.
//
// A restarted replica broadcasts STATE_REQ and feeds every STATE_RESP it
// receives through this module.  Nothing in a response is taken on faith:
//
//   * the snapshot bytes must hash to a digest covered by a checkpoint
//     certificate carrying `cert_quorum` distinct valid signatures (or be
//     byte-identical to the locally recomputable genesis snapshot);
//   * the decoded snapshot's slot field must match the certified slot —
//     the slot is inside the hashed bytes, so a valid certificate pins it;
//   * replay-suffix batches are not certificate-covered (they trail the
//     latest checkpoint), so each slot's batch is only released once
//     `suffix_quorum` distinct responders agree on the exact ids — f+1
//     matching responses must include one correct replica.
//
// Corrupt or unverifiable responses are counted and dropped; the caller's
// retry timer (with backoff) handles silent responders.  The module is
// substrate-agnostic and purely functional over bytes — it never touches
// the replica's store, it only tells the replica what is safe to install.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/signature.hpp"
#include "smr/checkpoint.hpp"

namespace modubft::smr {

struct RecoveryConfig {
  std::uint32_t n = 0;
  /// Signatures a checkpoint certificate must carry (2f+1 for the
  /// Byzantine backend, a majority for crash).
  std::uint32_t cert_quorum = 0;
  /// Distinct responders that must agree on a suffix slot's batch before
  /// it is released for replay (f+1 Byzantine, 1 crash).
  std::uint32_t suffix_quorum = 1;
  const crypto::Verifier* verifier = nullptr;
  /// Negative-control switch used ONLY by the adversary harness: accept
  /// the first response without any verification, so the campaign can
  /// demonstrate what the checks prevent.
  bool trust_unverified = false;
};

class RecoveryModule {
 public:
  explicit RecoveryModule(RecoveryConfig config);

  /// Ingests one STATE_RESP body (bytes after the kind octet).  Returns
  /// true iff the response decoded and verified; its snapshot and suffix
  /// votes are then available through the accessors below.
  bool ingest(ProcessId from, const Bytes& body);

  /// Best verified snapshot strictly beyond `frontier`, if any.  Returns
  /// the decoded snapshot together with its raw bytes and certificate so
  /// the installer can re-serve them to later recoverers.
  struct Installable {
    Snapshot snapshot;
    Bytes encoded;
    bft::CheckpointCert cert;
  };
  std::optional<Installable> best_snapshot(std::uint64_t frontier) const;

  /// Batch for `slot` once `suffix_quorum` responders agree on it.
  std::optional<std::vector<std::uint64_t>> batch_for(std::uint64_t slot) const;

  /// Drops suffix votes below the new commit frontier.
  void prune_below(std::uint64_t frontier);

 private:
  /// True iff `resp`'s snapshot, whose digest is `digest`, is genesis or
  /// carries a valid checkpoint certificate.
  bool verify_resp(const StateResp& resp, const crypto::Digest& digest) const;
  void record_suffix(ProcessId from, const StateResp& resp);

  RecoveryConfig config_;

  /// Highest verified checkpoint seen so far.
  std::optional<Installable> best_;

  /// Per-slot suffix votes: candidate batch -> responders endorsing it.
  std::map<std::uint64_t, std::map<std::vector<std::uint64_t>,
                                   std::set<std::uint32_t>>>
      suffix_votes_;
};

}  // namespace modubft::smr
