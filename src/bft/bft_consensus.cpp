#include "bft/bft_consensus.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace modubft::bft {

BftProcess::BftProcess(BftConfig config, Value proposal,
                       const crypto::Signer* signer,
                       std::shared_ptr<const crypto::Verifier> verifier,
                       VectorDecideFn on_decide)
    : TransformedActor(
          signer,
          std::make_shared<const CertAnalyzer>(config.n, config.quorum(),
                                               std::move(verifier)),
          config.muteness,
          std::make_unique<BftConsensus>(config, proposal,
                                         std::move(on_decide)),
          [](ProcessId peer, const CertAnalyzer& analyzer) {
            return std::make_unique<PeerMonitor>(peer, analyzer);
          }) {}

BftConsensus::BftConsensus(BftConfig config, Value proposal,
                           VectorDecideFn on_decide)
    : config_(std::move(config)),
      proposal_(proposal),
      cert_(config_),
      on_decide_(std::move(on_decide)) {
  config_.validate();
  est_vect_.assign(config_.n, std::nullopt);
}

void BftConsensus::rp_start(ModuleServices& s, sim::Context& ctx) {
  // Fig 3 lines 4-5: null vector, broadcast the signed INIT.
  MessageCore init;
  init.kind = BftKind::kInit;
  init.sender = ctx.id();
  init.round = Round{0};
  init.init_value = proposal_;
  s.emit(ctx, std::move(init), Certificate{});
  ctx.set_timer(config_.suspicion_poll_period);
}

void BftConsensus::rp_convicted(ModuleServices& s, sim::Context& ctx) {
  // Losing the coordinator to the faulty set can unblock us right away.
  check_suspicion(s, ctx);
}

void BftConsensus::rp_deliver(ModuleServices& s, sim::Context& ctx,
                              const MemberPtr& msg) {
  switch (msg->core.kind) {
    case BftKind::kInit:
      apply_init(s, ctx, msg);
      break;
    case BftKind::kCurrent:
      apply_current(s, ctx, msg);
      break;
    case BftKind::kNext:
      apply_next(s, ctx, msg);
      break;
    case BftKind::kDecide: {
      if (decided()) break;  // audit mode: observed, nothing more to do
      // Fig 3 lines 2-3: relay with the same certificate, then decide.
      MessageCore relay;
      relay.kind = BftKind::kDecide;
      relay.sender = ctx.id();
      relay.round = msg->core.round;
      relay.est = msg->core.est;
      s.emit(ctx, std::move(relay), msg->cert);
      decide(ctx, msg->core.est, msg->core.round);
      break;
    }
  }
}

void BftConsensus::apply_init(ModuleServices& s, sim::Context& ctx,
                              const MemberPtr& msg) {
  if (decided()) return;
  if (round_.value != 0) return;  // INIT phase is over; straggler INIT
  const ProcessId j = msg->core.sender;
  if (est_vect_[j.value].has_value()) return;  // already recorded
  // Fig 3 lines 7-8: record the value and extend the certificate.
  est_vect_[j.value] = msg->core.init_value;
  cert_.add_init(msg);
  if (cert_.init_count() >= config_.quorum()) {
    begin_round(s, ctx, Round{1});
  }
}

void BftConsensus::begin_round(ModuleServices& s, sim::Context& ctx, Round r) {
  MODUBFT_EXPECTS(r.value == round_.value + 1);
  round_ = r;
  sent_next_this_round_ = false;
  adopted_current_.reset();

  // Line 12 sends the coordinator's CURRENT *before* line 13 resets
  // next_cert: the previous round's NEXT quorum is this round's entry
  // witness.
  Certificate entry_witness = cert_.next_cert();
  cert_.reset_round();
  // Every caller enters a round as its last step, so the pipeline delivers
  // the round's buffered messages right after this function returns.
  s.enter_round(ctx.now());

  if (bft_coordinator_of(round_, config_.n) == ctx.id()) {
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ctx.id();
    core.round = round_;
    core.est = est_vect_;
    s.emit(ctx, std::move(core),
           cert_.build({&cert_.est_cert(), &entry_witness}));
  }
  check_suspicion(s, ctx);
}

void BftConsensus::apply_current(ModuleServices& s, sim::Context& ctx,
                                 const MemberPtr& msg) {
  if (decided()) return;
  if (msg->core.round != round_) return;  // stale: monitor bookkeeping only

  if (!adopted_current_) {
    // Line 17: adopt the first valid CURRENT of the round.
    adopted_current_ = msg;
    est_vect_ = msg->core.est;
    cert_.adopt_est(msg->cert);
    cert_.add_current(msg);
    // Lines 18-19: relay it, provided we have not yet voted NEXT and are
    // not the coordinator.
    if (!sent_next_this_round_ &&
        bft_coordinator_of(round_, config_.n) != ctx.id()) {
      MessageCore core;
      core.kind = BftKind::kCurrent;
      core.sender = ctx.id();
      core.round = round_;
      core.est = est_vect_;
      s.emit(ctx, std::move(core), cert_.relay_of(msg));
    }
  } else if (msg->core.est == est_vect_) {
    cert_.add_current(msg);
  } else {
    // Two well-formed CURRENTs with different vectors in one round: both
    // chains bottom at coordinator-signed messages, so the coordinator
    // equivocated.  That is provable misbehaviour.  The message is still a
    // received vote: it counts toward REC_FROM (change-mind progress) but
    // never toward the decision quorum.
    cert_.add_conflicting_current(msg);
    const ProcessId coord = bft_coordinator_of(round_, config_.n);
    if (!s.is_faulty(coord)) {
      s.declare_faulty(coord, FaultKind::kEquivocation,
                       "two conflicting certified vectors in round " +
                           std::to_string(round_.value),
                       ctx.now());
    }
    check_change_mind(s, ctx);
    return;
  }

  // Line 20-21: a quorum of matching CURRENTs decides.
  if (cert_.current_count() >= config_.quorum()) {
    MessageCore core;
    core.kind = BftKind::kDecide;
    core.sender = ctx.id();
    core.round = round_;
    core.est = est_vect_;
    s.emit(ctx, std::move(core), cert_.build({&cert_.current_cert()}));
    decide(ctx, est_vect_, round_);
    return;
  }

  check_change_mind(s, ctx);
}

void BftConsensus::apply_next(ModuleServices& s, sim::Context& ctx,
                              const MemberPtr& msg) {
  if (decided()) return;
  if (msg->core.round != round_) return;  // stale for the protocol
  cert_.add_next(msg);                    // line 27
  check_change_mind(s, ctx);
  check_round_exit(s, ctx);
}

void BftConsensus::send_next(ModuleServices& s, sim::Context& ctx,
                             Certificate cert) {
  sent_next_this_round_ = true;
  MessageCore core;
  core.kind = BftKind::kNext;
  core.sender = ctx.id();
  core.round = round_;
  s.emit(ctx, std::move(core), std::move(cert));
}

void BftConsensus::check_suspicion(ModuleServices& s, sim::Context& ctx) {
  // Lines 22-25: suspected ∪ faulty coordinator, still q0, no CURRENT seen.
  if (decided() || round_.value == 0 || sent_next_this_round_) return;
  if (cert_.current_count() != 0) return;
  const ProcessId coord = bft_coordinator_of(round_, config_.n);
  if (coord == ctx.id()) return;
  if (!s.suspects_mute(coord, ctx.now()) && !s.is_faulty(coord)) return;
  send_next(s, ctx, cert_.build({&cert_.current_cert(), &cert_.next_cert(),
                                 &cert_.est_cert()}));
  check_round_exit(s, ctx);
}

void BftConsensus::check_change_mind(ModuleServices& s, sim::Context& ctx) {
  // Lines 28-29, with the crash protocol's majority replaced by n−F.
  if (decided() || round_.value == 0 || sent_next_this_round_) return;
  if (cert_.current_count() == 0) return;
  if (cert_.rec_from().size() < config_.quorum()) return;
  if (cert_.current_count() >= config_.quorum()) return;  // would decide
  if (cert_.next_count() >= config_.quorum()) return;     // round over
  send_next(s, ctx, cert_.build({&cert_.current_cert(), &cert_.conflict_cert(),
                                 &cert_.next_cert()}));
}

void BftConsensus::check_round_exit(ModuleServices& s, sim::Context& ctx) {
  // Line 14 / 31: n−F NEXTs end the round.
  if (decided() || round_.value == 0) return;
  if (cert_.next_count() < config_.quorum()) return;
  if (!sent_next_this_round_) {
    send_next(s, ctx, cert_.build({&cert_.next_cert()}));  // line 31
  }
  begin_round(s, ctx, round_.next());
}

void BftConsensus::rp_timer(ModuleServices& s, sim::Context& ctx,
                            std::uint64_t) {
  if (decided()) return;
  check_suspicion(s, ctx);
  ctx.set_timer(config_.suspicion_poll_period);
}

void BftConsensus::decide(sim::Context& ctx, const VectorValue& vect,
                          Round round) {
  if (decided()) return;
  decision_ = VectorDecision{vect, round, ctx.now()};
  log_debug("BFT ", ctx.id(), " decides in ", round);
  // With stop_on_decide the pipeline halts the actor (rp_done) as soon as
  // this callback returns; nothing is sent after a decision.
  if (on_decide_) on_decide_(ctx.id(), *decision_);
}

}  // namespace modubft::bft
