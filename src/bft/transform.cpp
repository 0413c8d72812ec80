#include "bft/transform.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace modubft::bft {

namespace {

// Messages from `sender` in one round's buffer slot (at most 2n entries).
std::size_t held_from(const std::vector<MemberPtr>& slot, ProcessId sender) {
  return static_cast<std::size_t>(
      std::count_if(slot.begin(), slot.end(), [sender](const MemberPtr& m) {
        return m->core.sender == sender;
      }));
}

}  // namespace

TransformedActor::TransformedActor(const crypto::Signer* signer,
                                   std::shared_ptr<const CertAnalyzer> analyzer,
                                   fd::MutenessConfig muteness,
                                   std::unique_ptr<RoundProtocol> protocol,
                                   const PeerModelFactory& model_factory)
    : analyzer_(std::move(analyzer)),
      signature_(signer, analyzer_->verifier()),
      muteness_(analyzer_->n(), signer->id(), muteness),
      nonmute_(analyzer_->n(), *analyzer_, model_factory),
      protocol_(std::move(protocol)) {
  MODUBFT_EXPECTS(protocol_ != nullptr);
}

bool TransformedActor::suspects_mute(ProcessId q, SimTime now) {
  return muteness_.suspects(q, now);
}

void TransformedActor::declare_faulty(ProcessId culprit, FaultKind kind,
                                      std::string detail, SimTime now) {
  nonmute_.declare_faulty(culprit, kind, std::move(detail), now);
}

void TransformedActor::enter_round(SimTime now) {
  muteness_.on_new_round(now);
}

void TransformedActor::emit(sim::Context& ctx, MessageCore core,
                            Certificate cert) {
  const Bytes frame = signature_.sign(std::move(core), std::move(cert));
  send_stats_.bytes += static_cast<std::uint64_t>(frame.size()) * ctx.n();
  send_stats_.max_message_bytes =
      std::max<std::uint64_t>(send_stats_.max_message_bytes, frame.size());
  ctx.broadcast(frame);
}

void TransformedActor::on_start(sim::Context& ctx) {
  protocol_->rp_start(*this, ctx);
  if (protocol_->rp_done()) ctx.stop();
}

void TransformedActor::on_message(sim::Context& ctx, ProcessId from,
                                  const Bytes& payload) {
  // A stopped actor gets no more callbacks on the simulator, but a
  // wall-clock runtime may still hand it the rest of a drained batch.
  if (protocol_->rp_done()) return;

  // Signature module (ingress).
  SignatureModule::Inbound in = signature_.authenticate(from, payload);
  if (!in.ok) {
    nonmute_.declare_faulty(from, in.verdict.kind, in.verdict.detail,
                            ctx.now());
    return;
  }
  // Muteness module: any authentic protocol message counts as activity.
  muteness_.on_protocol_message(from, ctx.now());
  // Messages already attributed to faulty processes are discarded.
  if (nonmute_.is_faulty(from)) return;

  // The message is shared immutable state, one object per distinct byte
  // string in this instance: certificates built from it hold this same
  // allocation instead of deep-copying.  Only a message kept here (buffered
  // or delivered) is interned.
  const MemberPtr& msg = in.msg;
  const bool round_vote = msg->core.kind == BftKind::kCurrent ||
                          msg->core.kind == BftKind::kNext;
  const std::uint32_t round = protocol_->rp_round().value;
  if (round_vote && msg->core.round.value > round) {
    // Future round: wait for the receiver to get there.  INIT starts the
    // peer's automaton and DECIDE is enabled in every state, so neither
    // waits.
    if (msg->core.round.value - round > kMaxBufferedRounds) return;
    std::vector<MemberPtr>& slot = future_[msg->core.round.value];
    if (held_from(slot, from) < kMaxBufferedPerSender) {
      signature_.remember(std::move(in.fresh));
      slot.push_back(msg);
    }
    return;
  }
  signature_.remember(std::move(in.fresh));
  deliver(ctx, msg);
  drain(ctx);
  if (protocol_->rp_done()) ctx.stop();
}

void TransformedActor::deliver(sim::Context& ctx, const MemberPtr& msg) {
  // Non-muteness module: run the sender's peer model.
  const ProcessId sender = msg->core.sender;
  Verdict v = nonmute_.observe(sender, *msg, ctx.now());
  if (!v) {
    if (v.kind != FaultKind::kNone) {
      log_debug("pipeline ", ctx.id(), " declares ", sender, " faulty: ",
                fault_kind_name(v.kind), " — ", v.detail);
      protocol_->rp_convicted(*this, ctx);
    }
    return;
  }
  protocol_->rp_deliver(*this, ctx, msg);
}

void TransformedActor::drain(sim::Context& ctx) {
  // Deliver the buffered rounds the protocol has since entered, oldest
  // first and each in arrival order, so every peer model still sees its
  // peer's messages in FIFO order.  A delivery may enter the next round;
  // its messages follow once the current batch is through.
  while (!protocol_->rp_done() && !future_.empty() &&
         future_.begin()->first <= protocol_->rp_round().value) {
    const std::vector<MemberPtr> pending = std::move(future_.begin()->second);
    future_.erase(future_.begin());
    for (const MemberPtr& msg : pending) {
      if (protocol_->rp_done()) return;
      if (nonmute_.is_faulty(msg->core.sender)) continue;
      deliver(ctx, msg);
    }
  }
}

std::size_t TransformedActor::buffered(Round r, ProcessId sender) const {
  const auto it = future_.find(r.value);
  return it == future_.end() ? 0 : held_from(it->second, sender);
}

void TransformedActor::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (protocol_->rp_done()) return;
  protocol_->rp_timer(*this, ctx, timer_id);
  drain(ctx);
  if (protocol_->rp_done()) ctx.stop();
}

}  // namespace modubft::bft
