#include "smr/recovery.hpp"

#include "common/check.hpp"

namespace modubft::smr {

RecoveryModule::RecoveryModule(RecoveryConfig config)
    : config_(std::move(config)) {
  MODUBFT_EXPECTS(config_.n > 0);
  MODUBFT_EXPECTS(config_.suffix_quorum >= 1);
  MODUBFT_EXPECTS(config_.trust_unverified || config_.verifier != nullptr ||
                  config_.cert_quorum == 0);
}

bool RecoveryModule::verify_resp(const StateResp& resp,
                                 const crypto::Digest& digest) const {
  if (resp.ckpt_slot == 0) {
    // Genesis needs no certificate, but the bytes must be exactly the
    // canonical empty state — anything else is a fabrication.
    if (resp.snapshot != genesis_snapshot()) return false;
  } else {
    bft::CheckpointCert cert;
    cert.slot = resp.ckpt_slot;
    cert.digest = digest;
    cert.sigs = resp.cert_sigs;
    if (config_.verifier == nullptr ||
        !bft::verify_checkpoint_cert(cert, *config_.verifier, config_.n,
                                     config_.cert_quorum)) {
      return false;
    }
  }
  return true;
}

bool RecoveryModule::ingest(ProcessId from, const Bytes& body) {
  std::optional<StateResp> resp = try_decode_state_resp(body, StateLimits{});
  if (!resp.has_value()) return false;

  const crypto::Digest digest = snapshot_digest(resp->snapshot);
  if (!config_.trust_unverified && !verify_resp(*resp, digest)) return false;

  // The snapshot decodes under the same limits the wire decoder applied;
  // its internal slot field must match the certified slot (it is part of
  // the hashed bytes, so a quorum vouched for it).
  Snapshot snap;
  try {
    snap = decode_snapshot(resp->snapshot, StateLimits{});
  } catch (const SerialError&) {
    return false;
  }
  if (snap.slot != resp->ckpt_slot) return false;

  if (!best_.has_value() || resp->ckpt_slot > best_->snapshot.slot) {
    Installable inst;
    inst.snapshot = std::move(snap);
    inst.encoded = resp->snapshot;
    inst.cert.slot = resp->ckpt_slot;
    inst.cert.digest = digest;
    inst.cert.sigs = resp->cert_sigs;
    best_ = std::move(inst);
  }

  record_suffix(from, *resp);
  return true;
}

void RecoveryModule::record_suffix(ProcessId from, const StateResp& resp) {
  for (const SuffixEntry& entry : resp.suffix) {
    suffix_votes_[entry.slot][entry.ids].insert(from.value);
  }
}

std::optional<RecoveryModule::Installable> RecoveryModule::best_snapshot(
    std::uint64_t frontier) const {
  if (best_.has_value() && best_->snapshot.slot > frontier) return best_;
  return std::nullopt;
}

std::optional<std::vector<std::uint64_t>> RecoveryModule::batch_for(
    std::uint64_t slot) const {
  auto it = suffix_votes_.find(slot);
  if (it == suffix_votes_.end()) return std::nullopt;
  for (const auto& [ids, voters] : it->second) {
    if (voters.size() >= config_.suffix_quorum) return ids;
  }
  return std::nullopt;
}

void RecoveryModule::prune_below(std::uint64_t frontier) {
  suffix_votes_.erase(suffix_votes_.begin(),
                      suffix_votes_.lower_bound(frontier));
}

}  // namespace modubft::smr
