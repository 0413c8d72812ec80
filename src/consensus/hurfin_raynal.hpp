// Hurfin–Raynal ◇S consensus protocol (paper Figure 2, FIFO-adapted).
//
// The crash-model protocol the paper transforms.  Round r is coordinated by
// p_{((r-1) mod n)+1}; processes vote CURRENT (adopt the coordinator's
// estimate) or NEXT (move on).  A majority of CURRENT votes decides; a
// majority of NEXT votes starts round r+1; a process in state q1 that saw a
// majority of votes but neither majority "changes its mind" and votes NEXT
// to unblock the round.
//
// Assumptions (paper §4): majority of correct processes (at most
// ⌊(n-1)/2⌋ crashes) and a failure detector of class ◇S.
//
// This implementation is event-driven: Figure 2's `while` loop body becomes
// the message handler, and its `upon p_c ∈ suspected` guard is evaluated on
// every event plus a periodic poll timer (suspicion is time-driven).  Per
// footnote 5, votes for future rounds are buffered and votes for past
// rounds discarded — the FIFO-channel adaptation.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/messages.hpp"
#include "consensus/value.hpp"
#include "fd/failure_detector.hpp"
#include "sim/actor.hpp"

namespace modubft::consensus {

class HurfinRaynalActor final : public sim::Actor {
 public:
  /// `detector` is the ◇S module (read-only for the protocol, per the
  /// paper); `on_decide` fires exactly once, when this process decides,
  /// and the actor then stops, mirroring the paper's `return(est)`.
  HurfinRaynalActor(std::uint32_t n, Value proposal,
                    std::shared_ptr<fd::CrashDetector> detector,
                    DecideFn on_decide);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  /// Round coordinator per the paper's rotating-coordinator rule.
  static ProcessId coordinator_of(Round r, std::uint32_t n);

  bool decided() const { return decided_; }
  Round current_round() const { return round_; }

 private:
  enum class AutomatonState { kQ0, kQ1, kQ2 };

  void begin_round(sim::Context& ctx, Round r);
  void handle_vote(sim::Context& ctx, const Vote& v);
  void check_suspicion(sim::Context& ctx);
  void check_change_mind(sim::Context& ctx);
  void check_round_exit(sim::Context& ctx);
  void decide(sim::Context& ctx, Value value);
  void broadcast_vote(sim::Context& ctx, VoteKind kind);
  bool majority(std::size_t count) const { return 2 * count > n_; }

  std::uint32_t n_;
  Value est_;
  std::shared_ptr<fd::CrashDetector> detector_;
  DecideFn on_decide_;

  Round round_;  // r_i; 0 before the first round
  AutomatonState state_ = AutomatonState::kQ0;
  std::size_t nb_current_ = 0;
  std::size_t nb_next_ = 0;
  std::set<ProcessId> rec_from_;
  bool decided_ = false;
  bool sent_next_this_round_ = false;
  std::map<std::uint32_t, std::vector<Vote>> future_votes_;
};

}  // namespace modubft::consensus
