#include "consensus/hurfin_raynal.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace modubft::consensus {

HurfinRaynalActor::HurfinRaynalActor(std::uint32_t n, Value proposal,
                                     std::shared_ptr<fd::CrashDetector> detector,
                                     DecideFn on_decide)
    : n_(n),
      est_(proposal),
      detector_(std::move(detector)),
      on_decide_(std::move(on_decide)) {
  MODUBFT_EXPECTS(n_ >= 2);
  MODUBFT_EXPECTS(detector_ != nullptr);
}

ProcessId HurfinRaynalActor::coordinator_of(Round r, std::uint32_t n) {
  MODUBFT_EXPECTS(r.value >= 1);
  // Paper line 4: c = (r_i mod n) + 1 evaluated before r_i is incremented,
  // i.e. round 1 is coordinated by p_1.
  return ProcessId{(r.value - 1) % n};
}

void HurfinRaynalActor::on_start(sim::Context& ctx) {
  begin_round(ctx, Round{1});
  ctx.set_timer(kSuspicionPollPeriod);
}

void HurfinRaynalActor::begin_round(sim::Context& ctx, Round r) {
  round_ = r;
  state_ = AutomatonState::kQ0;
  nb_current_ = 0;
  nb_next_ = 0;
  rec_from_.clear();
  sent_next_this_round_ = false;

  if (coordinator_of(round_, n_) == ctx.id()) {
    broadcast_vote(ctx, VoteKind::kCurrent);  // line 5
  }
  check_suspicion(ctx);

  // Replay votes that arrived early for this round (footnote 5).
  auto it = future_votes_.find(round_.value);
  if (it != future_votes_.end()) {
    std::vector<Vote> pending = std::move(it->second);
    future_votes_.erase(it);
    for (const Vote& v : pending) {
      if (decided_ || round_ != v.round) break;  // a replay may advance us
      handle_vote(ctx, v);
    }
  }
}

void HurfinRaynalActor::broadcast_vote(sim::Context& ctx, VoteKind kind) {
  Vote v;
  v.kind = kind;
  v.sender = ctx.id();
  v.round = round_;
  v.value = est_;
  ctx.broadcast(encode_vote(v));
}

void HurfinRaynalActor::on_message(sim::Context& ctx, ProcessId from,
                                   const Bytes& payload) {
  (void)from;
  if (decided_) return;

  Vote v;
  try {
    v = decode_vote(payload);
  } catch (const SerialError& e) {
    // Crash model assumes honest encodings; a malformed frame can only come
    // from fault-injection tests.  Ignore it.
    log_debug("HR ", ctx.id(), ": dropping malformed vote: ", e.what());
    return;
  }

  // DECIDE is processed in any round: relay, then decide (line 2).
  if (v.kind == VoteKind::kDecide) {
    Vote relay = v;
    relay.sender = ctx.id();
    ctx.broadcast(encode_vote(relay));
    decide(ctx, v.value);
    return;
  }

  if (v.kind != VoteKind::kCurrent && v.kind != VoteKind::kNext) {
    return;  // not a Hurfin–Raynal vote
  }

  if (v.round.value < round_.value) return;  // stale vote: discard
  if (v.round.value > round_.value) {
    future_votes_[v.round.value].push_back(v);  // early vote: buffer
    return;
  }
  handle_vote(ctx, v);
}

void HurfinRaynalActor::handle_vote(sim::Context& ctx, const Vote& v) {
  const ProcessId coord = coordinator_of(round_, n_);

  if (v.kind == VoteKind::kCurrent) {
    // Lines 7-12.
    nb_current_ += 1;
    rec_from_.insert(v.sender);
    if (nb_current_ == 1) est_ = v.value;  // line 9
    if (state_ == AutomatonState::kQ0) {   // line 10: q0 -> q1
      state_ = AutomatonState::kQ1;
      if (ctx.id() != coord) broadcast_vote(ctx, VoteKind::kCurrent);
    }
    if (majority(nb_current_)) {  // line 12
      broadcast_vote(ctx, VoteKind::kDecide);
      decide(ctx, est_);
      return;
    }
  } else {  // kNext, line 14
    nb_next_ += 1;
    rec_from_.insert(v.sender);
  }

  check_suspicion(ctx);
  check_change_mind(ctx);
  check_round_exit(ctx);
}

void HurfinRaynalActor::check_suspicion(sim::Context& ctx) {
  // Line 13: upon p_c ∈ suspected, while still in q0, vote NEXT.
  if (decided_ || state_ != AutomatonState::kQ0) return;
  const ProcessId coord = coordinator_of(round_, n_);
  if (coord == ctx.id()) return;  // a process does not suspect itself
  if (detector_->suspects(coord, ctx.now())) {
    state_ = AutomatonState::kQ2;
    sent_next_this_round_ = true;
    broadcast_vote(ctx, VoteKind::kNext);
  }
}

void HurfinRaynalActor::check_change_mind(sim::Context& ctx) {
  // Line 15: a q1 process that has seen a majority of votes but neither a
  // deciding majority of CURRENT nor a round-ending majority of NEXT votes
  // NEXT to unblock the round.
  if (decided_ || state_ != AutomatonState::kQ1) return;
  if (!majority(rec_from_.size())) return;
  if (majority(nb_current_) || majority(nb_next_)) return;
  state_ = AutomatonState::kQ2;
  sent_next_this_round_ = true;
  broadcast_vote(ctx, VoteKind::kNext);
}

void HurfinRaynalActor::check_round_exit(sim::Context& ctx) {
  // Line 6 / 16-17: the round ends when a majority voted NEXT.
  if (decided_ || !majority(nb_next_)) return;
  if (state_ != AutomatonState::kQ2) {  // line 17
    state_ = AutomatonState::kQ2;
    sent_next_this_round_ = true;
    broadcast_vote(ctx, VoteKind::kNext);
  } else if (!sent_next_this_round_) {
    // In q2 without having voted NEXT cannot happen: q2 is only entered by
    // voting NEXT.
    MODUBFT_ASSERT(false);
  }
  begin_round(ctx, round_.next());
}

void HurfinRaynalActor::on_timer(sim::Context& ctx, std::uint64_t) {
  if (decided_) return;
  check_suspicion(ctx);
  ctx.set_timer(kSuspicionPollPeriod);
}

void HurfinRaynalActor::decide(sim::Context& ctx, Value value) {
  if (decided_) return;
  decided_ = true;
  log_debug("HR ", ctx.id(), " decides ", value, " in ", round_);
  if (on_decide_) {
    on_decide_(ctx.id(), Decision{value, round_, ctx.now()});
  }
  ctx.stop();
}

}  // namespace modubft::consensus
