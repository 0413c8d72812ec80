// Per-peer behaviour monitor — the Figure 4 state machine.
//
// "Under the assumption that every process knows the program text of the
// other processes, every process can build an ad-hoc state machine modeling
// the expected behavior of another process."  SM_p(q) tracks, from p's
// viewpoint and in FIFO receipt order, which automaton state q must be in:
//
//   start ──INIT──▶ q0@r ──CURRENT──▶ q1 ──NEXT──▶ q2 ──(round r+1)──▶ q0@r+1
//                     │                 │            │
//                     └──NEXT──▶ q2     │            │
//                     └────────DECIDE──┴────────────┴──▶ final
//   any invalid event ──▶ faulty (terminal)
//
// Receipt events that are not enabled in the current state are
// "out-of-order messages"; enabled events whose syntax or certificate is
// inconsistent are "wrong expected messages" — both trigger the transition
// to the terminal faulty state, exactly as in the paper.
//
// Precondition maintained by the caller (the transformed pipeline): CURRENT
// and NEXT messages are only fed to the monitor once the *receiver* has
// reached the message's round, so the receiver's own quorum evidence
// legitimizes the round number; future-round traffic is buffered upstream.
#pragma once

#include <functional>
#include <memory>

#include "bft/analyzer.hpp"
#include "bft/message.hpp"
#include "bft/verdict.hpp"

namespace modubft::bft {

/// Per-peer behaviour model slot (the protocol-specific part of the
/// non-muteness module).  One instance per monitored peer.
class PeerModel {
 public:
  virtual ~PeerModel() = default;

  /// Validates the peer's next message (in FIFO order).  A failing verdict
  /// convicts the peer; FaultKind::kNone means "already convicted, drop".
  virtual Verdict observe(const SignedMessage& msg) = 0;
};

/// Builds the model of one peer; models check certificates through the
/// pipeline's analyzer.
using PeerModelFactory = std::function<std::unique_ptr<PeerModel>(
    ProcessId peer, const CertAnalyzer& analyzer)>;

/// The Figure 4 model of a peer running the transformed consensus.
class PeerMonitor final : public PeerModel {
 public:
  enum class State : std::uint8_t { kStart, kInRound, kFinal, kFaulty };

  PeerMonitor(ProcessId peer, const CertAnalyzer& analyzer);

  /// Validates the next message from the monitored peer (in FIFO order) and
  /// advances the model.  A failed verdict leaves the monitor in kFaulty;
  /// every later message is rejected without a fresh accusation.
  Verdict observe(const SignedMessage& msg) override;

  State state() const { return state_; }
  Round tracked_round() const { return round_; }
  PeerPhase phase() const { return phase_; }
  ProcessId peer() const { return peer_; }

 private:
  Verdict fault(FaultKind kind, std::string detail);
  Verdict observe_init(const SignedMessage& msg);
  Verdict observe_decide(const SignedMessage& msg);
  Verdict observe_round_message(const SignedMessage& msg);

  ProcessId peer_;
  const CertAnalyzer& analyzer_;
  State state_ = State::kStart;
  Round round_;  // meaningful in kInRound
  PeerPhase phase_ = PeerPhase::kQ0;
};

}  // namespace modubft::bft
