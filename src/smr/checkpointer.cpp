#include "smr/checkpointer.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"
#include "common/log.hpp"
#include "smr/replica.hpp"

namespace modubft::smr {

namespace {

/// Signatures a checkpoint certificate needs: 2f+1 (Byzantine) or a simple
/// majority (crash).
std::uint32_t cert_quorum(const ReplicaConfig& config) {
  return config.backend == Backend::kByzantine ? 2 * config.bft.f + 1
                                               : config.n / 2 + 1;
}

}  // namespace

Checkpointer::Checkpointer(const ReplicaConfig& config, PipelineStats& stats,
                           const crypto::Verifier* verifier)
    : config_(config), stats_(stats), verifier_(verifier) {
  // Checkpoint votes are signed under BOTH backends: the certificate must
  // convince a recovering replica that trusts nobody, even when the
  // consensus protocol itself assumed only crash faults.
  MODUBFT_EXPECTS(config.signer != nullptr);
  MODUBFT_EXPECTS(config.verifier != nullptr ||
                  config.checkpoint.trust_unverified);
  if (config.checkpoint.recover) {
    RecoveryConfig rc;
    rc.n = config.n;
    rc.cert_quorum = cert_quorum(config);
    // Matching responders per replayed suffix slot: f+1 (Byzantine) or 1
    // (crash).
    rc.suffix_quorum =
        config.backend == Backend::kByzantine ? config.bft.f + 1 : 1;
    rc.verifier = config.verifier.get();
    rc.trust_unverified = config.checkpoint.trust_unverified;
    recovery_ = std::make_unique<RecoveryModule>(rc);
    recovering_ = true;
    retry_delay_ = config.retry_delay;
  }
}

bool Checkpointer::on_frame(sim::Context& ctx, ProcessId from,
                            ControlKind kind, const Bytes& body) {
  Reader r(body);
  if (kind == ControlKind::kCheckpointVote) {
    on_vote(from, r);
  } else if (kind == ControlKind::kStateReq) {
    on_state_req(ctx, from, r);
  } else if (recovery_ != nullptr) {  // STATE_RESP; ignored if never asked
    if (recovery_->ingest(from, body)) return true;
    ++stats_.recovery_rejects;
  }
  return false;
}

bool Checkpointer::is_boundary(std::uint64_t slot) const {
  return slot != 0 && slot % config_.checkpoint.interval == 0;
}

void Checkpointer::take(sim::Context& ctx, const Snapshot& snap) {
  last_ckpt_slot_ = snap.slot;
  Bytes encoded = encode_snapshot(snap);
  const crypto::Digest digest = snapshot_digest(encoded);
  pending_[snap.slot] = {std::move(encoded), digest};
  ++stats_.checkpoints_taken;

  CheckpointVote vote;
  vote.slot = snap.slot;
  vote.digest = digest;
  vote.sig = config_.signer->sign(
      bft::checkpoint_signing_bytes(vote.slot, vote.digest));
  log_debug("SMR ", ctx.id(), " checkpoint at slot ", vote.slot);
  // Includes self: our own vote is recorded on RX.
  send_to_replicas(ctx, config_.n, encode_control_vote(vote));
}

void Checkpointer::record(std::uint64_t slot, std::vector<std::uint64_t> ids) {
  slot_log_.emplace(slot, std::move(ids));
  stats_.log_peak =
      std::max<std::uint64_t>(stats_.log_peak, slot_log_.size());
}

void Checkpointer::on_vote(ProcessId from, Reader& r) {
  const CheckpointVote vote = decode_checkpoint_vote(r);
  // Only replicas vote (a recovering replica's certificate check rejects
  // any other signer too).
  if (from.value >= config_.n || !is_boundary(vote.slot) ||
      (!config_.checkpoint.trust_unverified &&
       !verifier_->verify(
           from, bft::checkpoint_signing_bytes(vote.slot, vote.digest),
           vote.sig))) {
    ++stats_.recovery_rejects;
    return;
  }

  if (latest_cert_.has_value() && vote.slot <= latest_cert_->slot) return;
  if (votes_.count(vote.slot) == 0 && votes_.size() >= kMaxOpenVoteSlots) {
    const auto highest = std::prev(votes_.end());
    if (highest->first < vote.slot) return;
    votes_.erase(highest);
  }
  // First vote per sender wins: a correct replica votes once per slot, so
  // a second digest from one sender is a fabrication.  An open slot holds
  // at most n votes.
  votes_[vote.slot].emplace(from.value, vote);
  try_certify(vote.slot);
}

void Checkpointer::try_certify(std::uint64_t slot) {
  // A certificate needs our own snapshot at that slot: the digest we can
  // vouch for is the one we computed ourselves.
  auto p = pending_.find(slot);
  if (p == pending_.end()) return;
  auto v = votes_.find(slot);
  if (v == votes_.end()) return;
  bft::CheckpointCert cert;
  cert.slot = slot;
  cert.digest = p->second.second;
  for (const auto& [signer, vote] : v->second) {
    if (vote.digest == cert.digest) cert.sigs.emplace_back(signer, vote.sig);
  }
  if (cert.sigs.size() < cert_quorum(config_)) return;
  latest_cert_ = std::move(cert);
  latest_snapshot_ = std::move(p->second.first);
  ++stats_.checkpoint_certs;

  // Log compaction: everything below the certified slot is recoverable
  // from the certificate, so the committed-slot log drops it.
  const auto cut = slot_log_.lower_bound(slot);
  stats_.log_truncated +=
      static_cast<std::uint64_t>(std::distance(slot_log_.begin(), cut));
  slot_log_.erase(slot_log_.begin(), cut);
  votes_.erase(votes_.begin(), votes_.upper_bound(slot));
  pending_.erase(pending_.begin(), pending_.upper_bound(slot));
}

void Checkpointer::on_state_req(sim::Context& ctx, ProcessId from,
                                Reader& r) {
  (void)decode_state_req(r);  // validated; we always serve from our best
  if (from.value == ctx.id().value) return;  // own broadcast echo
  if (recovering_) return;  // nothing trustworthy to serve yet

  StateResp resp;
  if (latest_cert_.has_value()) {
    resp.ckpt_slot = latest_cert_->slot;
    resp.snapshot = latest_snapshot_;
    resp.cert_sigs = latest_cert_->sigs;
  } else {
    resp.snapshot = genesis_snapshot();
  }
  for (const auto& [s, ids] : slot_log_) {
    if (s >= resp.ckpt_slot) resp.suffix.push_back(SuffixEntry{s, ids});
  }
  ctx.send(from, encode_control_state_resp(resp));
  ++stats_.state_resps;
}

void Checkpointer::request_state(sim::Context& ctx, std::uint64_t frontier) {
  send_to_replicas(ctx, config_.n, encode_control_state_req(frontier));
  ++stats_.state_reqs;
}

bool Checkpointer::start(sim::Context& ctx, std::uint64_t frontier) {
  if (!recovering_) return false;
  // Restarted with no state: fetch a certified checkpoint before touching
  // the window.  The retry timer re-broadcasts with backoff until peers
  // answer, and keeps driving catch-up after the join.
  stats_.recovery_start_us = ctx.now();
  last_seen_frontier_ = frontier;
  request_state(ctx, frontier);
  recovery_timer_ = ctx.set_timer(retry_delay_);
  return true;
}

bool Checkpointer::on_timer(sim::Context& ctx, std::uint64_t timer_id,
                            std::uint64_t frontier) {
  if (recovery_ == nullptr || timer_id != recovery_timer_) return false;
  // Catch-up tick: a stalled frontier means peers are ahead (or our first
  // request was lost) — re-ask with exponential backoff; progress resets
  // the backoff.
  if (frontier == last_seen_frontier_) {
    request_state(ctx, frontier);
    retry_delay_ =
        std::min<SimTime>(retry_delay_ * 2, config_.retry_delay * 16);
  } else {
    retry_delay_ = config_.retry_delay;
  }
  last_seen_frontier_ = frontier;
  recovery_timer_ = ctx.set_timer(retry_delay_);
  return true;
}

std::optional<Snapshot> Checkpointer::adopt(std::uint64_t frontier) {
  auto inst = recovery_->best_snapshot(frontier);
  if (!inst.has_value()) return std::nullopt;
  const std::uint64_t slot = inst->snapshot.slot;
  latest_cert_ = std::move(inst->cert);
  latest_snapshot_ = std::move(inst->encoded);
  slot_log_.erase(slot_log_.begin(), slot_log_.lower_bound(slot));
  votes_.erase(votes_.begin(), votes_.lower_bound(slot));
  ++stats_.recovery_installs;
  return std::move(inst->snapshot);
}

void Checkpointer::replayed(sim::Context& ctx, std::uint64_t frontier) {
  recovery_->prune_below(frontier);
  if (recovering_) {
    // First verified response = the rejoin point, even if it carried
    // nothing newer than genesis: the replica now provably holds the best
    // certified state and can participate from its frontier.
    recovering_ = false;
    stats_.recovery_join_us = ctx.now();
    log_debug("SMR ", ctx.id(), " rejoined at slot ", frontier);
  }
}

}  // namespace modubft::smr
