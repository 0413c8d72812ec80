// Certified checkpoints, log compaction and state transfer
// (docs/RECOVERY.md).
//
// Every `interval` committed slots each replica signs a vote for the
// digest of its snapshot and broadcasts it.  A snapshot certified by a
// quorum of matching votes lets the replica drop the committed-slot log
// below it and serve it, with the log suffix above it, to a restarted
// replica that asks with STATE_REQ.  The restarted replica's side is the
// recovery client: it broadcasts STATE_REQ with a backoff timer and feeds
// every STATE_RESP through a RecoveryModule, which says what is safe to
// install.  A replica never stops itself, so its peers are there to
// answer a restarted replica however late it comes back.
//
// Checkpointer owns control kinds 1–3.  It never touches the replica's
// store or frontier: the replica hands it a snapshot at each boundary, and
// takes from it an installable snapshot or a quorum-agreed suffix batch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bft/checkpoint_cert.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/signature.hpp"
#include "sim/actor.hpp"
#include "smr/checkpoint.hpp"
#include "smr/recovery.hpp"

namespace modubft::smr {

struct ReplicaConfig;
struct PipelineStats;

/// Boundary slots above the latest certificate that hold votes at once.
/// A vote that would open one more slot is kept only if its slot is below
/// the highest open one, which it then evicts: a correct replica's votes
/// sit on the lowest open boundaries, so a flooder voting for far-future
/// boundaries (the log has no end to bound them) evicts only its own.
inline constexpr std::size_t kMaxOpenVoteSlots = 64;

/// Checkpointing + recovery knobs.  interval == 0 disables the whole
/// subsystem: no control frames are sent or accepted, and the wire
/// traffic is byte-identical to a pre-recovery build.
struct CheckpointConfig {
  /// Take a checkpoint every `interval` committed slots.  0 = off.
  std::uint64_t interval = 0;

  /// Start in recovery: the replica owns no state, broadcasts STATE_REQ,
  /// and only joins the window after installing a verified response.
  bool recover = false;

  /// Negative-control switch (adversary harness only): install the first
  /// response without verification.
  bool trust_unverified = false;
};

class Checkpointer {
 public:
  /// Control kinds 1–3: CHECKPOINT, STATE_REQ, STATE_RESP.
  static bool owns(ControlKind kind) {
    return kind >= ControlKind::kCheckpointVote &&
           kind <= ControlKind::kStateResp;
  }

  /// Reads the replica's `config` (which must outlive it) and counts into
  /// its `stats`; `verifier` checks checkpoint votes (the replica's shared
  /// cache when it has one).
  Checkpointer(const ReplicaConfig& config, PipelineStats& stats,
               const crypto::Verifier* verifier);

  /// Handles one frame of a kind this unit owns; `body` is the bytes after
  /// the kind octet.  Returns true iff a STATE_RESP verified, so recovery
  /// may have something new to install.  Throws SerialError on a malformed
  /// body.
  bool on_frame(sim::Context& ctx, ProcessId from, ControlKind kind,
                const Bytes& body);

  /// True iff `frontier` is a checkpoint boundary this replica has not
  /// voted on yet.
  bool due(std::uint64_t frontier) const {
    return is_boundary(frontier) && frontier > last_ckpt_slot_;
  }
  /// Takes the checkpoint `snap` (the replica's state at a due boundary):
  /// keeps it pending certification and broadcasts this replica's vote.
  void take(sim::Context& ctx, const Snapshot& snap);
  /// Appends a committed slot to the log a STATE_RESP serves.
  void record(std::uint64_t slot, std::vector<std::uint64_t> ids);
  /// Boundary slots holding votes (at most kMaxOpenVoteSlots).
  std::size_t open_vote_slots() const { return votes_.size(); }

  // --- the recovery client ---
  /// True iff this replica started in recovery.
  bool restarted() const { return recovery_ != nullptr; }
  /// True until a restarted replica accepts its first verified response.
  bool recovering() const { return recovering_; }
  /// Starts recovery on a restarted replica: broadcasts STATE_REQ and arms
  /// the backoff timer.  False (and does nothing) otherwise.
  bool start(sim::Context& ctx, std::uint64_t frontier);
  /// Handles the recovery backoff timer; false for any other timer.
  bool on_timer(sim::Context& ctx, std::uint64_t timer_id,
                std::uint64_t frontier);
  /// The best verified snapshot beyond `frontier`, adopted as this
  /// replica's latest certified checkpoint, for the replica to install.
  std::optional<Snapshot> adopt(std::uint64_t frontier);
  /// The quorum-agreed batch of suffix slot `slot`, if any.
  std::optional<std::vector<std::uint64_t>> suffix_batch(
      std::uint64_t slot) const {
    return recovery_->batch_for(slot);
  }
  /// Called after the replica installed what recovery offered: drops the
  /// consumed suffix votes and, on the first verified response, ends
  /// recovery (the rejoin point).
  void replayed(sim::Context& ctx, std::uint64_t frontier);

 private:
  /// The one boundary rule: every `interval`-th slot.
  bool is_boundary(std::uint64_t slot) const;
  void on_vote(ProcessId from, Reader& r);
  void on_state_req(sim::Context& ctx, ProcessId from, Reader& r);
  void try_certify(std::uint64_t slot);
  void request_state(sim::Context& ctx, std::uint64_t frontier);

  const ReplicaConfig& config_;
  PipelineStats& stats_;
  const crypto::Verifier* verifier_;

  /// Committed-slot log: slot → committed ids (empty = no-op slot).
  /// Spans [latest certified checkpoint, frontier); compacted whenever a
  /// new certificate forms.
  std::map<std::uint64_t, std::vector<std::uint64_t>> slot_log_;
  /// Own snapshots awaiting certification: slot → (encoded, digest).
  std::map<std::uint64_t, std::pair<Bytes, crypto::Digest>> pending_;
  /// Checkpoint votes: slot → signer → its vote.  One vote per replica
  /// and slot (the first one; a correct replica votes once per slot), so
  /// an open boundary slot holds at most n votes, in at most
  /// kMaxOpenVoteSlots slots.
  std::map<std::uint64_t, std::map<std::uint32_t, CheckpointVote>> votes_;
  std::optional<bft::CheckpointCert> latest_cert_;
  Bytes latest_snapshot_;  // encoded bytes the certificate covers
  std::uint64_t last_ckpt_slot_ = 0;

  // Recovery client state.
  bool recovering_ = false;
  std::unique_ptr<RecoveryModule> recovery_;
  std::uint64_t recovery_timer_ = 0;
  SimTime retry_delay_ = 0;
  std::uint64_t last_seen_frontier_ = 0;
};

}  // namespace modubft::smr
