// The transformed protocol: Byzantine-resilient vector consensus (Fig 3).
//
// This is the Hurfin–Raynal protocol after applying the paper's
// transformation methodology.  BftConsensus is the protocol module of
// Figure 1 — Figure 3's INIT phase and round loop over the certification
// module — and BftProcess runs it inside the generic five-module pipeline
// (transform.hpp), with the Figure 4 PeerMonitor as the per-peer model:
//
//   * SignatureModule       — authenticates every frame, signs every send;
//   * MutenessModule        — ◇M suspicion of silent processes;
//   * NonMutenessModule     — Figure 4 monitors + the reliable faulty_i set;
//   * CertificationModule   — certificate variables and outgoing builds;
//   * the protocol itself   — BftConsensus.
//
// Protocol outline:
//   INIT phase  — broadcast ⟨INIT(v_i), ∅⟩, gather n−F signed INITs into
//                 est_cert, producing the certified initial vector;
//   round r     — the coordinator proposes its vector with a CURRENT
//                 certified by est_cert ∪ next_cert; receivers adopt and
//                 relay the first valid CURRENT; n−F matching CURRENTs
//                 decide (DECIDE certified by current_cert); suspicion of
//                 the coordinator (◇M ∪ faulty), change-mind, or n−F NEXTs
//                 produce NEXT votes, and n−F NEXTs start round r+1.
//
// Guarantees under F ≤ min(⌊(n−1)/2⌋, C) arbitrary faults: Agreement,
// Termination, and Vector Validity with ≥ n−2F entries from correct
// processes.
#pragma once

#include <memory>
#include <optional>

#include "bft/transform.hpp"
#include "consensus/value.hpp"
#include "crypto/verify_cache.hpp"

namespace modubft::bft {

using consensus::VectorDecideFn;
using consensus::VectorDecision;

/// The protocol module: Figure 3 over the pipeline's services.
class BftConsensus final : public RoundProtocol {
 public:
  BftConsensus(BftConfig config, Value proposal, VectorDecideFn on_decide);

  void rp_start(ModuleServices& s, sim::Context& ctx) override;
  void rp_deliver(ModuleServices& s, sim::Context& ctx,
                  const MemberPtr& msg) override;
  void rp_timer(ModuleServices& s, sim::Context& ctx,
                std::uint64_t timer_id) override;
  void rp_convicted(ModuleServices& s, sim::Context& ctx) override;
  Round rp_round() const override { return round_; }
  /// In audit mode (stop_on_decide = false) a decided process keeps
  /// authenticating and monitoring late traffic.
  bool rp_done() const override {
    return decided() && config_.stop_on_decide;
  }

  bool decided() const { return decision_.has_value(); }
  const VectorDecision& decision() const { return *decision_; }
  const CertificationModule& certification() const { return cert_; }

 private:
  void begin_round(ModuleServices& s, sim::Context& ctx, Round r);
  void apply_init(ModuleServices& s, sim::Context& ctx, const MemberPtr& msg);
  void apply_current(ModuleServices& s, sim::Context& ctx,
                     const MemberPtr& msg);
  void apply_next(ModuleServices& s, sim::Context& ctx, const MemberPtr& msg);
  void check_suspicion(ModuleServices& s, sim::Context& ctx);
  void check_change_mind(ModuleServices& s, sim::Context& ctx);
  void check_round_exit(ModuleServices& s, sim::Context& ctx);
  void send_next(ModuleServices& s, sim::Context& ctx, Certificate cert);
  void decide(sim::Context& ctx, const VectorValue& vect, Round round);

  BftConfig config_;
  Value proposal_;
  CertificationModule cert_;
  VectorDecideFn on_decide_;

  // Protocol state (Fig 3 local variables).
  Round round_;          // 0 = INIT phase
  VectorValue est_vect_;
  bool sent_next_this_round_ = false;
  std::optional<VectorDecision> decision_;

  // The adopted CURRENT of this round (for equivocation evidence).
  MemberPtr adopted_current_;
};

/// The assembled consensus actor: BftConsensus in the transformed
/// pipeline.  When config.verify_cache is set, the signature module and
/// the certificate analyzer verify through one cache (config's shared one,
/// or a private one), so ingress checks and certificate-member checks
/// deduplicate against each other.
class BftProcess final : public TransformedActor {
 public:
  BftProcess(BftConfig config, Value proposal, const crypto::Signer* signer,
             std::shared_ptr<const crypto::Verifier> verifier,
             VectorDecideFn on_decide);

  bool decided() const { return consensus().decided(); }
  const VectorDecision& decision() const { return consensus().decision(); }
  Round current_round() const { return consensus().rp_round(); }
  const CertificationModule& certification() const {
    return consensus().certification();
  }

 private:
  const BftConsensus& consensus() const {
    return static_cast<const BftConsensus&>(protocol());
  }
};

}  // namespace modubft::bft
