// Certified lockstep barrier — the methodology applied to a second
// round-based protocol.
//
// The crash-model protocol is the elementary round barrier used inside
// many synchronizer constructions: in round r, broadcast a round-r vote,
// wait for n−F of them, advance; after `rounds` rounds, finish.  It is a
// "regular round-based protocol" in the paper's sense, so the §3 recipe
// applies:
//   * votes are signed (signature module);
//   * a silent peer is suspected by ◇M — the barrier tolerates it because
//     only n−F votes are needed (muteness module);
//   * each vote for round r+1 must carry a certificate of n−F signed
//     round-r votes (the round-number certification of §5.1, checked with
//     the same CertAnalyzer::entry_wf used by the consensus protocol);
//   * the per-peer model rejects duplicated, skipped-round and
//     out-of-order votes (non-muteness module).
//
// The protocol plugs into the same TransformedActor as the consensus —
// demonstrating that the pipeline, and three of the five modules, are
// protocol-independent.
#pragma once

#include <functional>
#include <memory>

#include "bft/analyzer.hpp"
#include "bft/transform.hpp"

namespace modubft::bft {

struct LockstepConfig {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::uint32_t rounds = 5;  // barrier count to cross
  bool prune_witness = true; // prune the witness votes' own certificates
  /// ◇M timeouts of the assembled pipeline — widen on wall-clock
  /// substrates (the defaults are simulator-scale).
  fd::MutenessConfig muteness{};
  std::uint32_t quorum() const { return n - f; }
};

/// Completion callback: (process, final round reached, completion time).
using LockstepDoneFn = std::function<void(ProcessId, Round, SimTime)>;

/// The protocol module (plugs into TransformedActor).
class LockstepProtocol final : public RoundProtocol {
 public:
  LockstepProtocol(LockstepConfig config, LockstepDoneFn on_done);

  void rp_start(ModuleServices& services, sim::Context& ctx) override;
  void rp_deliver(ModuleServices& services, sim::Context& ctx,
                  const MemberPtr& msg) override;
  // No timers: progress is purely message-driven.
  Round rp_round() const override { return round_; }
  bool rp_done() const override { return done_; }

 private:
  void vote(ModuleServices& services, sim::Context& ctx);

  LockstepConfig config_;
  LockstepDoneFn on_done_;
  Round round_;
  Certificate witness_;       // the previous round's quorum of votes
  Certificate collected_;     // this round's valid votes
  bool done_ = false;
};

/// The peer behaviour model (plugs into TransformedActor).
class LockstepPeerModel final : public PeerModel {
 public:
  LockstepPeerModel(ProcessId peer, const CertAnalyzer& analyzer);

  Verdict observe(const SignedMessage& msg) override;

 private:
  Verdict fail(FaultKind kind, std::string detail);

  ProcessId peer_;
  const CertAnalyzer& analyzer_;
  Round last_round_;  // 0 = no vote seen yet
  bool faulty_ = false;
};

/// Convenience assembly: lockstep protocol + models inside the generic
/// transformed pipeline.
std::unique_ptr<sim::Actor> make_lockstep_actor(
    LockstepConfig config, const crypto::Signer* signer,
    std::shared_ptr<const crypto::Verifier> verifier, LockstepDoneFn on_done,
    const TransformedActor** out_view = nullptr);

}  // namespace modubft::bft
