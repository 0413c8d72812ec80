#include "bft/transform.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace modubft::bft {

TransformedActor::TransformedActor(TransformConfig config,
                                   const crypto::Signer* signer,
                                   std::shared_ptr<const crypto::Verifier> verifier,
                                   std::unique_ptr<RoundProtocol> protocol,
                                   PeerModelFactory model_factory)
    : config_(config),
      signature_(signer, std::move(verifier)),
      muteness_(config.n, signer->id(), config.muteness),
      protocol_(std::move(protocol)) {
  MODUBFT_EXPECTS(config_.n >= 2);
  MODUBFT_EXPECTS(protocol_ != nullptr);
  MODUBFT_EXPECTS(model_factory != nullptr);
  models_.reserve(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    models_.push_back(model_factory(ProcessId{i}));
    MODUBFT_EXPECTS(models_.back() != nullptr);
  }
}

bool TransformedActor::suspects_mute(ProcessId q, SimTime now) {
  return muteness_.suspects(q, now);
}

void TransformedActor::emit(sim::Context& ctx, MessageCore core,
                            Certificate cert) {
  SignedMessage msg = signature_.sign(std::move(core), std::move(cert));
  ctx.broadcast(encode_message(msg));
}

void TransformedActor::convict(ProcessId culprit, FaultKind kind,
                               std::string detail, SimTime now) {
  records_.push_back(FaultRecord{culprit, kind, detail, now});
  faulty_.insert(culprit);
}

void TransformedActor::on_start(sim::Context& ctx) {
  protocol_->rp_start(*this, ctx);
  if (protocol_->rp_done()) ctx.stop();
}

void TransformedActor::on_message(sim::Context& ctx, ProcessId from,
                                  const Bytes& payload) {
  if (protocol_->rp_done()) return;

  SignatureModule::Inbound in = signature_.authenticate(from, payload);
  if (!in.ok) {
    convict(from, in.verdict.kind, in.verdict.detail, ctx.now());
    return;
  }
  muteness_.on_protocol_message(from, ctx.now());
  if (is_faulty(from)) return;

  const SignedMessage& msg = in.msg;
  if (msg.core.round.value > protocol_->rp_round().value) {
    if (msg.core.round.value - protocol_->rp_round().value <=
        kMaxBufferedRounds) {
      future_[msg.core.round.value].push_back(msg);
    }
    return;
  }
  deliver_validated(ctx, msg);
  drain_ready(ctx);
  if (protocol_->rp_done()) ctx.stop();
}

void TransformedActor::deliver_validated(sim::Context& ctx,
                                         const SignedMessage& msg) {
  Verdict v = models_[msg.core.sender.value]->observe(msg);
  if (!v) {
    if (v.kind != FaultKind::kNone) {
      log_debug("transform ", ctx.id(), " convicts ", msg.core.sender, ": ",
                v.detail);
      convict(msg.core.sender, v.kind, v.detail, ctx.now());
    }
    return;
  }
  protocol_->rp_deliver(*this, ctx, msg);
}

void TransformedActor::drain_ready(sim::Context& ctx) {
  // Deliver buffered rounds the protocol has since reached; each delivery
  // may advance it further.
  while (!protocol_->rp_done()) {
    const std::uint32_t round = protocol_->rp_round().value;
    bool progressed = false;
    for (auto it = future_.begin();
         it != future_.end() && it->first <= round;) {
      std::vector<SignedMessage> pending = std::move(it->second);
      it = future_.erase(it);
      for (const SignedMessage& msg : pending) {
        if (protocol_->rp_done()) return;
        if (is_faulty(msg.core.sender)) continue;
        deliver_validated(ctx, msg);
      }
      progressed = true;
      break;  // round may have changed; restart the scan
    }
    if (!progressed) return;
  }
}

void TransformedActor::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (protocol_->rp_done()) return;
  protocol_->rp_timer(*this, ctx, timer_id);
  drain_ready(ctx);
  if (protocol_->rp_done()) ctx.stop();
}

}  // namespace modubft::bft
