// Generic protocol transformation (paper §3, "General Methodology").
//
// The paper's claim is that the five-module decomposition is *generic*:
// any regular round-based crash-resilient protocol can be transformed by
// wrapping it with the signature, muteness, non-muteness and certification
// modules.  TransformedActor is that wrapper as a reusable component:
//
//   * ingress pipeline — decode → signature check → identity check →
//     muteness feed → faulty-set filter → per-peer behaviour model →
//     deliver to the protocol;
//   * future-round buffering — messages for rounds the receiver has not
//     reached are held back until the receiver's own quorum evidence
//     legitimizes them (footnote 5 generalized);
//   * egress — the protocol emits (core, certificate) pairs; the pipeline
//     signs and broadcasts them.
//
// What stays protocol-specific, exactly as the paper says ("the actual
// design of some of these modules cannot be performed independently of the
// algorithm that will use them"):
//   * the RoundProtocol itself, and
//   * the PeerModel — the Figure 4-style state machine encoding the
//     protocol's program text.
//
// Two instantiations exist in this repository: the Byzantine vector
// consensus (BftProcess, hand-specialized for performance and fidelity to
// Figure 3) and the certified lockstep barrier (lockstep.hpp), which plugs
// into this wrapper directly and demonstrates the methodology on a second
// protocol.
#pragma once

#include <map>
#include <memory>
#include <set>
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
  virtual const std::set<ProcessId>& faulty_set() const = 0;

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
                          const SignedMessage& msg) = 0;
  virtual void rp_timer(ModuleServices& services, sim::Context& ctx,
                        std::uint64_t timer_id) = 0;

  /// The receiver's current round, used for future-round buffering.
  virtual Round rp_round() const = 0;

  /// True once the protocol finished (the actor then stops).
  virtual bool rp_done() const = 0;
};

/// Per-peer behaviour model slot (the protocol-specific part of the
/// non-muteness module).  One instance per monitored peer.
class PeerModel {
 public:
  virtual ~PeerModel() = default;

  /// Validates the peer's next message (in FIFO order).  A failing verdict
  /// convicts the peer; FaultKind::kNone means "already convicted, drop".
  virtual Verdict observe(const SignedMessage& msg) = 0;
};

using PeerModelFactory =
    std::function<std::unique_ptr<PeerModel>(ProcessId peer)>;

/// Messages with round > rp_round() wait in the buffer; rounds at most
/// this far ahead are kept (Byzantine flooding bound).
inline constexpr std::uint32_t kMaxBufferedRounds = 1024;

struct TransformConfig {
  std::uint32_t n = 0;
  fd::MutenessConfig muteness{};
};

/// The generic five-module composition.
class TransformedActor final : public sim::Actor, private ModuleServices {
 public:
  TransformedActor(TransformConfig config, const crypto::Signer* signer,
                   std::shared_ptr<const crypto::Verifier> verifier,
                   std::unique_ptr<RoundProtocol> protocol,
                   PeerModelFactory model_factory);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  const std::set<ProcessId>& faulty() const { return faulty_; }
  const std::vector<FaultRecord>& records() const { return records_; }
  const RoundProtocol& protocol() const { return *protocol_; }

 private:
  // ModuleServices
  bool suspects_mute(ProcessId q, SimTime now) override;
  bool is_faulty(ProcessId q) const override { return faulty_.count(q) > 0; }
  const std::set<ProcessId>& faulty_set() const override { return faulty_; }
  void emit(sim::Context& ctx, MessageCore core, Certificate cert) override;

  void convict(ProcessId culprit, FaultKind kind, std::string detail,
               SimTime now);
  void deliver_validated(sim::Context& ctx, const SignedMessage& msg);
  void drain_ready(sim::Context& ctx);

  TransformConfig config_;
  SignatureModule signature_;
  MutenessModule muteness_;
  std::unique_ptr<RoundProtocol> protocol_;
  std::vector<std::unique_ptr<PeerModel>> models_;
  std::set<ProcessId> faulty_;
  std::vector<FaultRecord> records_;
  std::map<std::uint32_t, std::vector<SignedMessage>> future_;
};

}  // namespace modubft::bft
