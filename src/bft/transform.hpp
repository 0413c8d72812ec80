// The transformed process (paper Fig 1 and §3, "General Methodology").
//
// The paper's method wraps any regular round-based crash-resilient
// protocol in the same four modules: signature, muteness, non-muteness and
// certification.  TransformedActor is that wrapper, and the only place the
// modules are composed.  Both round protocols of this repository run in
// it: the Byzantine vector consensus of Figure 3 (BftConsensus, assembled
// as BftProcess in bft_consensus.hpp, with the Figure 4 PeerMonitor as its
// peer model) and the certified lockstep barrier (lockstep.hpp).
//
// The pipeline owns, once for both:
//   * ingress — decode → signature and identity check → muteness feed →
//     faulty-set filter → per-peer model → deliver to the protocol, with
//     every conviction recorded by the one NonMutenessModule;
//   * future-round buffering — CURRENT and NEXT messages for rounds the
//     receiver has not reached are held back, as shared MemberPtrs, until
//     the receiver's own quorum evidence legitimizes them (footnote 5
//     generalized); INIT and DECIDE are never held;
//   * egress — the protocol emits (core, certificate) pairs; the pipeline
//     signs, broadcasts and counts them.
//
// What stays protocol-specific, exactly as the paper says ("the actual
// design of some of these modules cannot be performed independently of the
// algorithm that will use them"):
//   * the RoundProtocol itself, and
//   * the PeerModel — the Figure 4-style state machine encoding the
//     protocol's program text (monitor.hpp).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bft/modules.hpp"
#include "sim/actor.hpp"

namespace modubft::bft {

/// Facilities the pipeline offers the wrapped protocol module.
class ModuleServices {
 public:
  virtual ~ModuleServices() = default;

  /// ◇M suspicion (muteness module).
  virtual bool suspects_mute(ProcessId q, SimTime now) = 0;

  /// Read-only view of faulty_i (non-muteness module).
  virtual bool is_faulty(ProcessId q) const = 0;

  /// Adds `culprit` to faulty_i on evidence the protocol itself holds
  /// (e.g. a coordinator's two conflicting certified vectors).
  virtual void declare_faulty(ProcessId culprit, FaultKind kind,
                              std::string detail, SimTime now) = 0;

  /// The protocol entered a new round: ◇M deadlines restart now.  The
  /// round's buffered messages are delivered as soon as the callback that
  /// entered it returns to the pipeline.
  virtual void enter_round(SimTime now) = 0;

  /// Signs and broadcasts a message (certification + signature egress).
  virtual void emit(sim::Context& ctx, MessageCore core, Certificate cert) = 0;
};

/// The protocol module slot of Figure 1.  Receives only messages that
/// passed every detection module.
class RoundProtocol {
 public:
  virtual ~RoundProtocol() = default;

  virtual void rp_start(ModuleServices& services, sim::Context& ctx) = 0;
  virtual void rp_deliver(ModuleServices& services, sim::Context& ctx,
                          const MemberPtr& msg) = 0;
  virtual void rp_timer(ModuleServices&, sim::Context&, std::uint64_t) {}

  /// A peer model just convicted the sender of a message (it is now in
  /// faulty_i).
  virtual void rp_convicted(ModuleServices&, sim::Context&) {}

  /// The receiver's current round, used for future-round buffering.
  virtual Round rp_round() const = 0;

  /// True once the protocol finished: the actor then stops and drops
  /// every later message.
  virtual bool rp_done() const = 0;
};

/// Bounds of the future-round buffer against Byzantine flooding.  Rounds
/// more than kMaxBufferedRounds ahead are dropped.  Each round keeps at
/// most kMaxBufferedPerSender messages from each sender: a correct process
/// sends at most one CURRENT and one NEXT in a Figure 3 round and one vote
/// in a lockstep round, so the cap never drops an honest message, and a
/// flooding peer cannot crowd out the others.  The buffer thus holds at
/// most kMaxBufferedRounds × kMaxBufferedPerSender × n messages.
inline constexpr std::uint32_t kMaxBufferedRounds = 1024;
inline constexpr std::size_t kMaxBufferedPerSender = 2;

/// Per-process send accounting (experiments E3/E6).
struct SendStats {
  std::uint64_t bytes = 0;
  std::uint64_t max_message_bytes = 0;
};

/// The generic five-module composition for the group of analyzer->n()
/// processes.  `analyzer` is the certificate checker the peer models use;
/// its verifier (a verified-signature cache or the plain scheme) also
/// serves the signature module.  `muteness` sets the ◇M timeouts.
class TransformedActor : public sim::Actor, private ModuleServices {
 public:
  TransformedActor(const crypto::Signer* signer,
                   std::shared_ptr<const CertAnalyzer> analyzer,
                   fd::MutenessConfig muteness,
                   std::unique_ptr<RoundProtocol> protocol,
                   const PeerModelFactory& model_factory);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  const NonMutenessModule& nonmuteness() const { return nonmute_; }
  const SendStats& send_stats() const { return send_stats_; }
  const RoundProtocol& protocol() const { return *protocol_; }

  /// Messages from `sender` waiting for round r (at most
  /// kMaxBufferedPerSender).
  std::size_t buffered(Round r, ProcessId sender) const;

  /// The verified-signature cache, or nullptr when verification is not
  /// cached.  Exposed for benchmarks and tests.
  const crypto::CachingVerifier* verify_cache() const {
    return analyzer_->cache();
  }

 private:
  // ModuleServices
  bool suspects_mute(ProcessId q, SimTime now) override;
  bool is_faulty(ProcessId q) const override { return nonmute_.is_faulty(q); }
  void declare_faulty(ProcessId culprit, FaultKind kind, std::string detail,
                      SimTime now) override;
  void enter_round(SimTime now) override;
  void emit(sim::Context& ctx, MessageCore core, Certificate cert) override;

  void deliver(sim::Context& ctx, const MemberPtr& msg);
  void drain(sim::Context& ctx);

  std::shared_ptr<const CertAnalyzer> analyzer_;
  SignatureModule signature_;
  MutenessModule muteness_;
  NonMutenessModule nonmute_;
  std::unique_ptr<RoundProtocol> protocol_;
  // FIFO-preserving buffer of future-round messages, by round.
  std::map<std::uint32_t, std::vector<MemberPtr>> future_;
  SendStats send_stats_;
};

}  // namespace modubft::bft
