#include "bft/bft_consensus.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace modubft::bft {

BftProcess::BftProcess(BftConfig config, Value proposal,
                       const crypto::Signer* signer,
                       std::shared_ptr<const crypto::Verifier> verifier,
                       VectorDecideFn on_decide)
    : config_(config),
      proposal_(proposal),
      vcache_(!config.verify_cache ? nullptr
              : config.shared_verify_cache
                  ? config.shared_verify_cache
                  : std::make_shared<crypto::CachingVerifier>(verifier)),
      signature_(signer,
                 vcache_ ? std::shared_ptr<const crypto::Verifier>(vcache_)
                         : verifier,
                 config.verify_pool),
      muteness_(config.n, signer->id(), config.muteness),
      analyzer_(std::make_shared<CertAnalyzer>(
          config.n, config.quorum(),
          vcache_ ? std::shared_ptr<const crypto::Verifier>(vcache_)
                  : verifier,
          config.verify_pool)),
      nonmute_(config.n, signer->id(), analyzer_),
      cert_(config_),
      on_decide_(std::move(on_decide)) {
  config_.validate();
  est_vect_.assign(config_.n, std::nullopt);
}

void BftProcess::send_signed(sim::Context& ctx, MessageCore core,
                             Certificate cert) {
  SignedMessage msg = signature_.sign(std::move(core), std::move(cert));
  Bytes frame = encode_message(msg);
  send_stats_.bytes += static_cast<std::uint64_t>(frame.size()) * ctx.n();
  send_stats_.max_message_bytes =
      std::max<std::uint64_t>(send_stats_.max_message_bytes, frame.size());
  ctx.broadcast(frame);
}

void BftProcess::on_start(sim::Context& ctx) {
  // Fig 3 lines 4-5: null vector, broadcast the signed INIT.
  MessageCore init;
  init.kind = BftKind::kInit;
  init.sender = ctx.id();
  init.round = Round{0};
  init.init_value = proposal_;
  send_signed(ctx, std::move(init), Certificate{});
  ctx.set_timer(config_.suspicion_poll_period);
}

void BftProcess::on_message(sim::Context& ctx, ProcessId from,
                            const Bytes& payload) {
  // With stop_on_decide the runtime halts us at decision time anyway; in
  // audit mode we keep authenticating and monitoring late traffic.
  if (decided() && config_.stop_on_decide) return;

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

  // Parallel fast path: pre-verify the certificate's members through the
  // pool before the serial well-formedness walk below touches them.  The
  // analyzer's checks then hit the shared cache.  No-op without a pool.
  if (config_.verify_pool && !in.msg.cert.empty()) {
    analyzer_->warm_certificate(in.msg.cert);
  }

  // From here on the message is shared immutable state: certificates built
  // from it hold this same allocation instead of deep-copying.
  MemberPtr msg = std::make_shared<const SignedMessage>(std::move(in.msg));
  switch (msg->core.kind) {
    case BftKind::kInit:
    case BftKind::kDecide:
      // Validated immediately: INIT starts the peer's automaton and DECIDE
      // is enabled in every state (the concurrent relay task).
      process_validated(ctx, msg);
      return;
    case BftKind::kCurrent:
    case BftKind::kNext:
      if (msg->core.round.value > round_.value) {
        // Future round: buffer until our own quorum evidence legitimizes it
        // (footnote 5 adapted to the arbitrary-failure setting).  Bounded
        // against Byzantine flooding: honest processes are never more than
        // a handful of rounds ahead and send O(1) votes per round, so the
        // caps below only ever drop hostile traffic.
        constexpr std::uint32_t kMaxRoundsAhead = 1024;
        constexpr std::size_t kMaxBufferedPerRound = 4096;
        if (msg->core.round.value - round_.value > kMaxRoundsAhead) return;
        std::vector<MemberPtr>& slot = future_[msg->core.round.value];
        if (slot.size() >= kMaxBufferedPerRound) return;
        slot.push_back(std::move(msg));
        return;
      }
      process_validated(ctx, msg);
      return;
  }
}

void BftProcess::process_validated(sim::Context& ctx, const MemberPtr& msg) {
  // Non-muteness module: run the sender's Figure 4 monitor.
  Verdict v = nonmute_.observe(msg->core.sender, *msg, ctx.now());
  if (!v) {
    if (v.kind != FaultKind::kNone) {
      log_debug("BFT ", ctx.id(), " declares ", msg->core.sender,
                " faulty: ", fault_kind_name(v.kind), " — ", v.detail);
      // Losing the coordinator to the faulty set can unblock us right away.
      check_suspicion(ctx);
    }
    return;
  }

  switch (msg->core.kind) {
    case BftKind::kInit:
      apply_init(ctx, msg);
      break;
    case BftKind::kCurrent:
      apply_current(ctx, msg);
      break;
    case BftKind::kNext:
      apply_next(ctx, msg);
      break;
    case BftKind::kDecide: {
      if (decided()) break;  // audit mode: observed, nothing more to do
      // Fig 3 lines 2-3: relay with the same certificate, then decide.
      MessageCore relay;
      relay.kind = BftKind::kDecide;
      relay.sender = ctx.id();
      relay.round = msg->core.round;
      relay.est = msg->core.est;
      send_signed(ctx, std::move(relay), msg->cert);
      decide(ctx, msg->core.est, msg->core.round);
      break;
    }
  }
}

void BftProcess::apply_init(sim::Context& ctx, const MemberPtr& msg) {
  if (decided()) return;
  if (round_.value != 0) return;  // INIT phase is over; straggler INIT
  const ProcessId j = msg->core.sender;
  if (est_vect_[j.value].has_value()) return;  // already recorded
  // Fig 3 lines 7-8: record the value and extend the certificate.
  est_vect_[j.value] = msg->core.init_value;
  cert_.add_init(msg);
  if (cert_.init_count() >= config_.quorum()) {
    begin_round(ctx, Round{1});
  }
}

void BftProcess::begin_round(sim::Context& ctx, Round r) {
  MODUBFT_EXPECTS(r.value == round_.value + 1);
  round_ = r;
  sent_next_this_round_ = false;
  adopted_current_.reset();

  // Line 12 sends the coordinator's CURRENT *before* line 13 resets
  // next_cert: the previous round's NEXT quorum is this round's entry
  // witness.
  Certificate entry_witness = cert_.next_cert();
  cert_.reset_round();
  muteness_.on_new_round(ctx.now());

  if (bft_coordinator_of(round_, config_.n) == ctx.id()) {
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ctx.id();
    core.round = round_;
    core.est = est_vect_;
    send_signed(ctx, std::move(core),
                cert_.build({&cert_.est_cert(), &entry_witness}));
  }
  check_suspicion(ctx);
  drain_buffer(ctx);
}

void BftProcess::drain_buffer(sim::Context& ctx) {
  auto it = future_.find(round_.value);
  if (it == future_.end()) return;
  std::vector<MemberPtr> pending = std::move(it->second);
  future_.erase(it);
  const Round at = round_;
  for (const MemberPtr& msg : pending) {
    if (decided() || round_ != at) break;  // a replay advanced or ended us
    if (nonmute_.is_faulty(msg->core.sender)) continue;
    process_validated(ctx, msg);
  }
}

void BftProcess::apply_current(sim::Context& ctx, const MemberPtr& msg) {
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
      send_signed(ctx, std::move(core), cert_.relay_of(msg));
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
    if (!nonmute_.is_faulty(coord)) {
      nonmute_.declare_faulty(coord, FaultKind::kEquivocation,
                              "two conflicting certified vectors in round " +
                                  std::to_string(round_.value),
                              ctx.now());
    }
    check_change_mind(ctx);
    return;
  }

  // Line 20-21: a quorum of matching CURRENTs decides.
  if (cert_.current_count() >= config_.quorum()) {
    MessageCore core;
    core.kind = BftKind::kDecide;
    core.sender = ctx.id();
    core.round = round_;
    core.est = est_vect_;
    Certificate decide_cert = cert_.build({&cert_.current_cert()});
    send_signed(ctx, std::move(core), std::move(decide_cert));
    decide(ctx, est_vect_, round_);
    return;
  }

  check_change_mind(ctx);
}

void BftProcess::apply_next(sim::Context& ctx, const MemberPtr& msg) {
  if (decided()) return;
  if (msg->core.round != round_) return;  // stale for the protocol
  cert_.add_next(msg);                    // line 27
  check_change_mind(ctx);
  check_round_exit(ctx);
}

void BftProcess::send_next(sim::Context& ctx, Certificate cert) {
  sent_next_this_round_ = true;
  MessageCore core;
  core.kind = BftKind::kNext;
  core.sender = ctx.id();
  core.round = round_;
  send_signed(ctx, std::move(core), std::move(cert));
}

void BftProcess::check_suspicion(sim::Context& ctx) {
  // Lines 22-25: suspected ∪ faulty coordinator, still q0, no CURRENT seen.
  if (decided() || round_.value == 0 || sent_next_this_round_) return;
  if (cert_.current_count() != 0) return;
  const ProcessId coord = bft_coordinator_of(round_, config_.n);
  if (coord == ctx.id()) return;
  if (!muteness_.suspects(coord, ctx.now()) && !nonmute_.is_faulty(coord))
    return;
  send_next(ctx, cert_.build({&cert_.current_cert(), &cert_.next_cert(),
                              &cert_.est_cert()}));
  check_round_exit(ctx);
}

void BftProcess::check_change_mind(sim::Context& ctx) {
  // Lines 28-29, with the crash protocol's majority replaced by n−F.
  if (decided() || round_.value == 0 || sent_next_this_round_) return;
  if (cert_.current_count() == 0) return;
  if (cert_.rec_from().size() < config_.quorum()) return;
  if (cert_.current_count() >= config_.quorum()) return;  // would decide
  if (cert_.next_count() >= config_.quorum()) return;     // round over
  send_next(ctx, cert_.build({&cert_.current_cert(), &cert_.conflict_cert(),
                              &cert_.next_cert()}));
}

void BftProcess::check_round_exit(sim::Context& ctx) {
  // Line 14 / 31: n−F NEXTs end the round.
  if (decided() || round_.value == 0) return;
  if (cert_.next_count() < config_.quorum()) return;
  if (!sent_next_this_round_) {
    send_next(ctx, cert_.build({&cert_.next_cert()}));  // line 31
  }
  begin_round(ctx, round_.next());
}

void BftProcess::on_timer(sim::Context& ctx, std::uint64_t) {
  if (decided()) return;
  check_suspicion(ctx);
  ctx.set_timer(config_.suspicion_poll_period);
}

void BftProcess::decide(sim::Context& ctx, const VectorValue& vect,
                        Round round) {
  if (decided()) return;
  decision_ = VectorDecision{vect, round, ctx.now()};
  log_debug("BFT ", ctx.id(), " decides in ", round);
  if (on_decide_) on_decide_(ctx.id(), *decision_);
  if (config_.stop_on_decide) ctx.stop();
}

}  // namespace modubft::bft
