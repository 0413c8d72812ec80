#include "bft/lockstep.hpp"

#include "common/check.hpp"

namespace modubft::bft {

LockstepProtocol::LockstepProtocol(LockstepConfig config, LockstepDoneFn on_done)
    : config_(config), on_done_(std::move(on_done)) {
  MODUBFT_EXPECTS(config_.n >= 2);
  MODUBFT_EXPECTS(config_.f < config_.n);
  MODUBFT_EXPECTS(config_.rounds >= 1);
}

void LockstepProtocol::vote(ModuleServices& services, sim::Context& ctx) {
  MessageCore core;
  core.kind = BftKind::kNext;
  core.sender = ctx.id();
  core.round = round_;
  services.emit(ctx, std::move(core), witness_);
}

void LockstepProtocol::rp_start(ModuleServices& services, sim::Context& ctx) {
  round_ = Round{1};
  vote(services, ctx);
}

void LockstepProtocol::rp_deliver(ModuleServices& services, sim::Context& ctx,
                                  const MemberPtr& msg) {
  if (done_ || msg->core.round != round_) return;  // stale votes: model-only
  collected_.add(msg);
  if (collected_.size() < config_.quorum()) return;

  // Barrier crossed: this round's quorum becomes the next round's witness.
  // Unpruned votes are shared, not copied; prune() is O(1) once the vote's
  // certificate digest is memoized.
  witness_ = Certificate{};
  for (const MemberPtr& m : collected_.members()) {
    if (config_.prune_witness && !m->cert.empty() && !m->cert.pruned) {
      witness_.add(SignedMessage{m->core, prune(m->cert), m->sig});
    } else {
      witness_.add(m);
    }
  }
  collected_ = Certificate{};

  if (round_.value >= config_.rounds) {
    done_ = true;
    if (on_done_) on_done_(ctx.id(), round_, ctx.now());
    return;
  }
  round_ = round_.next();
  vote(services, ctx);
}

LockstepPeerModel::LockstepPeerModel(ProcessId peer,
                                     const CertAnalyzer& analyzer)
    : peer_(peer), analyzer_(analyzer) {}

Verdict LockstepPeerModel::fail(FaultKind kind, std::string detail) {
  faulty_ = true;
  return Verdict::fail(kind, std::move(detail));
}

Verdict LockstepPeerModel::observe(const SignedMessage& msg) {
  if (faulty_) return Verdict::fail(FaultKind::kNone, "peer already faulty");

  if (msg.core.kind != BftKind::kNext || !msg.core.est.empty()) {
    return fail(FaultKind::kWrongExpected,
                "lockstep peers send only round votes");
  }
  const Round r = msg.core.round;
  if (r.value == 0) {
    return fail(FaultKind::kWrongExpected, "vote for round 0");
  }
  if (r.value <= last_round_.value) {
    return fail(FaultKind::kOutOfOrder, "duplicate or regressing vote");
  }
  if (r.value != last_round_.value + 1) {
    return fail(FaultKind::kOutOfOrder, "skipped a round");
  }
  // Round-number certification (§5.1): a round-r vote must witness the
  // previous barrier with n−F signed round-(r−1) votes.
  if (Verdict v = analyzer_.entry_wf(msg.cert, r); !v) {
    faulty_ = true;
    return v;
  }
  last_round_ = r;
  return Verdict::ok();
}

std::unique_ptr<sim::Actor> make_lockstep_actor(
    LockstepConfig config, const crypto::Signer* signer,
    std::shared_ptr<const crypto::Verifier> verifier, LockstepDoneFn on_done,
    const TransformedActor** out_view) {
  auto analyzer = std::make_shared<const CertAnalyzer>(
      config.n, config.quorum(), verifier);

  auto actor = std::make_unique<TransformedActor>(
      signer, std::move(analyzer), config.muteness,
      std::make_unique<LockstepProtocol>(config, std::move(on_done)),
      [](ProcessId peer, const CertAnalyzer& checker) {
        return std::make_unique<LockstepPeerModel>(peer, checker);
      });
  if (out_view != nullptr) *out_view = actor.get();
  return actor;
}

}  // namespace modubft::bft
