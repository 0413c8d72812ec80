// The transformed protocol: Byzantine-resilient vector consensus (Fig 3).
//
// This is the Hurfin–Raynal protocol after applying the paper's
// transformation methodology.  Each BftProcess is the five-module
// composition of Figure 1:
//
//   * SignatureModule       — authenticates every frame, signs every send;
//   * MutenessModule        — ◇M suspicion of silent processes;
//   * NonMutenessModule     — Figure 4 monitors + the reliable faulty_i set;
//   * CertificationModule   — certificate variables and outgoing builds;
//   * the protocol itself   — Figure 3's INIT phase and round loop.
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

#include <map>
#include <memory>
#include <optional>

#include "bft/modules.hpp"
#include "consensus/value.hpp"
#include "crypto/verify_cache.hpp"
#include "sim/actor.hpp"

namespace modubft::bft {

using consensus::VectorDecideFn;
using consensus::VectorDecision;

/// Per-process send accounting (experiments E3/E6).
struct SendStats {
  std::uint64_t bytes = 0;
  std::uint64_t max_message_bytes = 0;
};

class BftProcess final : public sim::Actor {
 public:
  BftProcess(BftConfig config, Value proposal, const crypto::Signer* signer,
             std::shared_ptr<const crypto::Verifier> verifier,
             VectorDecideFn on_decide);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  bool decided() const { return decision_.has_value(); }
  const VectorDecision& decision() const { return *decision_; }
  Round current_round() const { return round_; }

  const NonMutenessModule& nonmuteness() const { return nonmute_; }
  const CertificationModule& certification() const { return cert_; }
  const SendStats& send_stats() const { return send_stats_; }

  /// The shared verified-signature cache, or nullptr when disabled
  /// (config.verify_cache = false).  Exposed for benchmarks and tests.
  const crypto::CachingVerifier* verify_cache() const { return vcache_.get(); }

 private:
  void begin_round(sim::Context& ctx, Round r);
  void process_validated(sim::Context& ctx, const MemberPtr& msg);
  void apply_init(sim::Context& ctx, const MemberPtr& msg);
  void apply_current(sim::Context& ctx, const MemberPtr& msg);
  void apply_next(sim::Context& ctx, const MemberPtr& msg);
  void check_suspicion(sim::Context& ctx);
  void check_change_mind(sim::Context& ctx);
  void check_round_exit(sim::Context& ctx);
  void send_signed(sim::Context& ctx, MessageCore core, Certificate cert);
  void send_next(sim::Context& ctx, Certificate cert);
  void decide(sim::Context& ctx, const VectorValue& vect, Round round);
  void drain_buffer(sim::Context& ctx);

  BftConfig config_;
  Value proposal_;

  // When enabled, both the signature module and the analyzer verify
  // through this one cache, so ingress checks and certificate-member
  // checks deduplicate against each other.
  std::shared_ptr<crypto::CachingVerifier> vcache_;
  SignatureModule signature_;
  MutenessModule muteness_;
  std::shared_ptr<const CertAnalyzer> analyzer_;
  NonMutenessModule nonmute_;
  CertificationModule cert_;
  VectorDecideFn on_decide_;

  // Protocol state (Fig 3 local variables).
  Round round_;          // 0 = INIT phase
  VectorValue est_vect_;
  bool sent_next_this_round_ = false;
  std::optional<VectorDecision> decision_;

  // The adopted CURRENT of this round (for equivocation evidence).
  MemberPtr adopted_current_;

  // FIFO-preserving buffer of future-round messages (footnote 5).
  std::map<std::uint32_t, std::vector<MemberPtr>> future_;

  SendStats send_stats_;
};

}  // namespace modubft::bft
