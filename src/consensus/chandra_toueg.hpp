// Chandra–Toueg ◇S consensus (JACM 1996) — the classical baseline.
//
// Implemented as the comparison point for experiment E7: the Hurfin–Raynal
// protocol [8] was published as a *simpler and faster* alternative to this
// algorithm, and the paper builds on HR, so reproducing that relationship
// requires both.
//
// Round r (coordinator c = p_{((r-1) mod n)+1}) has four phases:
//   P1  every process sends ESTIMATE(r, est, ts) to c;
//   P2  c collects a majority of estimates and proposes the one with the
//       highest timestamp ts;
//   P3  every process waits for c's PROPOSE or suspects c: it replies
//       ACK(r) (adopting est := proposal, ts := r) or NACK(r), then moves
//       to round r+1;
//   P4  c collects a majority of replies; if all are ACKs it broadcasts
//       DECIDE (reliable broadcast approximated by relay-once, as in the
//       HR implementation).
// Assumes a majority of correct processes and a ◇S detector.
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

class ChandraTouegActor final : public sim::Actor {
 public:
  ChandraTouegActor(std::uint32_t n, Value proposal,
                    std::shared_ptr<fd::CrashDetector> detector,
                    DecideFn on_decide);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override;
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override;

  static ProcessId coordinator_of(Round r, std::uint32_t n);

  bool decided() const { return decided_; }
  Round current_round() const { return round_; }

 private:
  void begin_round(sim::Context& ctx);
  void handle_now_or_buffer(sim::Context& ctx, const Vote& v);
  void handle_current_round(sim::Context& ctx, const Vote& v);
  void check_suspicion(sim::Context& ctx);
  void coordinator_check_estimates(sim::Context& ctx);
  void coordinator_check_replies(sim::Context& ctx);
  void maybe_finish_round(sim::Context& ctx);
  void decide(sim::Context& ctx, Value value);
  std::size_t majority_size() const { return n_ / 2 + 1; }

  std::uint32_t n_;
  Value est_;
  Round ts_;  // round in which est_ was last adopted (0 = initial)
  std::shared_ptr<fd::CrashDetector> detector_;
  DecideFn on_decide_;

  Round round_;
  bool decided_ = false;

  // Participant side of the current round.
  bool awaiting_propose_ = false;

  // Coordinator side of the current round.
  bool i_am_coordinator_ = false;
  bool proposed_ = false;
  std::map<ProcessId, Vote> estimates_;
  std::size_t acks_ = 0;
  std::size_t nacks_ = 0;
  bool coordinator_done_ = false;

  std::map<std::uint32_t, std::vector<Vote>> future_;
};

}  // namespace modubft::consensus
