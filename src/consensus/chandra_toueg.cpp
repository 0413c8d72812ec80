#include "consensus/chandra_toueg.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace modubft::consensus {

ChandraTouegActor::ChandraTouegActor(std::uint32_t n, Value proposal,
                                     std::shared_ptr<fd::CrashDetector> detector,
                                     DecideFn on_decide)
    : n_(n),
      est_(proposal),
      detector_(std::move(detector)),
      on_decide_(std::move(on_decide)) {
  MODUBFT_EXPECTS(n_ >= 2);
  MODUBFT_EXPECTS(detector_ != nullptr);
}

ProcessId ChandraTouegActor::coordinator_of(Round r, std::uint32_t n) {
  MODUBFT_EXPECTS(r.value >= 1);
  return ProcessId{(r.value - 1) % n};
}

void ChandraTouegActor::on_start(sim::Context& ctx) {
  round_ = Round{0};
  begin_round(ctx);
  ctx.set_timer(kSuspicionPollPeriod);
}

void ChandraTouegActor::begin_round(sim::Context& ctx) {
  round_ = round_.next();
  i_am_coordinator_ = coordinator_of(round_, n_) == ctx.id();
  awaiting_propose_ = true;
  proposed_ = false;
  estimates_.clear();
  acks_ = 0;
  nacks_ = 0;
  coordinator_done_ = !i_am_coordinator_;

  // P1: everyone sends its estimate to the round coordinator.
  Vote est;
  est.kind = VoteKind::kEstimate;
  est.sender = ctx.id();
  est.round = round_;
  est.value = est_;
  est.value_ts = ts_;
  ctx.send(coordinator_of(round_, n_), encode_vote(est));

  check_suspicion(ctx);

  auto it = future_.find(round_.value);
  if (it != future_.end()) {
    std::vector<Vote> pending = std::move(it->second);
    future_.erase(it);
    for (const Vote& v : pending) {
      if (decided_ || v.round != round_) break;
      handle_current_round(ctx, v);
    }
  }
}

void ChandraTouegActor::on_message(sim::Context& ctx, ProcessId from,
                                   const Bytes& payload) {
  (void)from;
  if (decided_) return;

  Vote v;
  try {
    v = decode_vote(payload);
  } catch (const SerialError& e) {
    log_debug("CT ", ctx.id(), ": dropping malformed vote: ", e.what());
    return;
  }

  if (v.kind == VoteKind::kDecide) {
    Vote relay = v;
    relay.sender = ctx.id();
    ctx.broadcast(encode_vote(relay));
    decide(ctx, v.value);
    return;
  }

  handle_now_or_buffer(ctx, v);
}

void ChandraTouegActor::handle_now_or_buffer(sim::Context& ctx, const Vote& v) {
  if (v.round.value < round_.value) return;  // stale
  if (v.round.value > round_.value) {
    future_[v.round.value].push_back(v);
    return;
  }
  handle_current_round(ctx, v);
}

void ChandraTouegActor::handle_current_round(sim::Context& ctx, const Vote& v) {
  switch (v.kind) {
    case VoteKind::kEstimate:
      if (!i_am_coordinator_ || proposed_) return;
      estimates_.emplace(v.sender, v);
      coordinator_check_estimates(ctx);
      break;

    case VoteKind::kPropose: {
      if (v.sender != coordinator_of(round_, n_)) return;
      if (!awaiting_propose_) return;  // already nacked this round
      // P3 (accept branch): adopt the proposal and acknowledge.
      est_ = v.value;
      ts_ = round_;
      awaiting_propose_ = false;
      Vote ack;
      ack.kind = VoteKind::kAck;
      ack.sender = ctx.id();
      ack.round = round_;
      ctx.send(coordinator_of(round_, n_), encode_vote(ack));
      maybe_finish_round(ctx);
      break;
    }

    case VoteKind::kAck:
      if (!i_am_coordinator_ || coordinator_done_) return;
      acks_ += 1;
      coordinator_check_replies(ctx);
      break;

    case VoteKind::kNack:
      if (!i_am_coordinator_ || coordinator_done_) return;
      nacks_ += 1;
      coordinator_check_replies(ctx);
      break;

    default:
      break;  // CURRENT/NEXT belong to the HR protocol
  }
}

void ChandraTouegActor::coordinator_check_estimates(sim::Context& ctx) {
  // P2: propose the estimate with the highest adoption timestamp.
  if (proposed_ || estimates_.size() < majority_size()) return;
  const Vote* best = nullptr;
  for (const auto& [sender, vote] : estimates_) {
    if (best == nullptr || vote.value_ts.value > best->value_ts.value) {
      best = &vote;
    }
  }
  MODUBFT_ASSERT(best != nullptr);
  est_ = best->value;
  proposed_ = true;

  Vote propose;
  propose.kind = VoteKind::kPropose;
  propose.sender = ctx.id();
  propose.round = round_;
  propose.value = est_;
  ctx.broadcast(encode_vote(propose));
}

void ChandraTouegActor::coordinator_check_replies(sim::Context& ctx) {
  // P4: with a majority of replies, decide if they are unanimous ACKs.
  if (coordinator_done_ || acks_ + nacks_ < majority_size()) return;
  coordinator_done_ = true;
  if (nacks_ == 0) {
    Vote dec;
    dec.kind = VoteKind::kDecide;
    dec.sender = ctx.id();
    dec.round = round_;
    dec.value = est_;
    ctx.broadcast(encode_vote(dec));
    decide(ctx, est_);
    return;
  }
  maybe_finish_round(ctx);
}

void ChandraTouegActor::check_suspicion(sim::Context& ctx) {
  // P3 (suspicion branch): give up on this round's coordinator.
  if (decided_ || !awaiting_propose_) return;
  const ProcessId coord = coordinator_of(round_, n_);
  if (coord == ctx.id()) return;
  if (!detector_->suspects(coord, ctx.now())) return;
  awaiting_propose_ = false;
  Vote nack;
  nack.kind = VoteKind::kNack;
  nack.sender = ctx.id();
  nack.round = round_;
  ctx.send(coord, encode_vote(nack));
  maybe_finish_round(ctx);
}

void ChandraTouegActor::maybe_finish_round(sim::Context& ctx) {
  // A participant leaves the round once it replied; a coordinator also
  // needs its P4 to have completed.
  if (decided_) return;
  if (awaiting_propose_) return;
  if (!coordinator_done_) return;
  begin_round(ctx);
}

void ChandraTouegActor::on_timer(sim::Context& ctx, std::uint64_t) {
  if (decided_) return;
  check_suspicion(ctx);
  ctx.set_timer(kSuspicionPollPeriod);
}

void ChandraTouegActor::decide(sim::Context& ctx, Value value) {
  if (decided_) return;
  decided_ = true;
  log_debug("CT ", ctx.id(), " decides ", value, " in ", round_);
  if (on_decide_) {
    on_decide_(ctx.id(), Decision{value, round_, ctx.now()});
  }
  ctx.stop();
}

}  // namespace modubft::consensus
