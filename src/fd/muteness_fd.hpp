// ◇M muteness failure detector (Doudou, Garbinato, Guerraoui, Schiper [6]).
//
// A process q is *mute to p with respect to algorithm A* if there is a time
// after which p no longer receives the A-messages q should be sending.
// Muteness subsumes crashes but is protocol-dependent: the detector must be
// told which arrivals count as A-messages and when the monitored protocol
// starts a new communication phase (a round), because expectations reset
// there.  Properties implemented, per [6]:
//   * mute completeness — a process mute to p is eventually suspected
//     forever (the silence deadline keeps receding only on real arrivals);
//   * eventual accuracy — under partial synchrony the per-peer timeout,
//     doubled at every false suspicion, eventually exceeds the true
//     inter-message bound, so correct processes stop being suspected.
//
// Two owners.  The transformed Byzantine protocol gives every consensus
// instance its own detector, fed that instance's messages and told of its
// rounds.  The crash back-end of smr::Replica gives each replica life one
// detector, fed every frame a replica sends it and read by every
// Hurfin–Raynal slot; a crash is the special case of muteness where the
// peer stops sending everything.  That replica pauses the detector while
// it runs no slot (nobody reads it then, and an idle peer has nothing to
// say), and the paused span is left out of every peer's silence.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "fd/failure_detector.hpp"

namespace modubft::fd {

struct MutenessConfig {
  /// Initial per-peer silence timeout; it doubles at every false
  /// suspicion (a suspected peer spoke).
  SimTime initial_timeout = 40'000;
};

/// Per-process ◇M module.  Fed by the muteness-failure-detection module of
/// the five-module pipeline; read (never written) by the protocol module.
class MutenessDetector final : public CrashDetector {
 public:
  MutenessDetector(std::uint32_t n, ProcessId self, MutenessConfig config);

  /// Records receipt of a protocol (A-)message from `from`.
  void on_protocol_message(ProcessId from, SimTime now);

  /// Informs the detector that the monitored protocol entered a new round;
  /// silence deadlines restart so peers aren't blamed for the querier's own
  /// progress.
  void on_new_round(SimTime now);

  /// The querier runs no protocol instance: silence stops counting until
  /// resume().  A no-op while paused.
  void pause(SimTime now);

  /// Silence counts again.  The paused span is left out of every peer's
  /// silence, not restarted: silence built up before the pause still
  /// counts.  A no-op while running.
  void resume(SimTime now);

  /// True iff `q` is currently suspected mute.
  bool suspects(ProcessId q, SimTime now) override;

  SimTime timeout_of(ProcessId q) const;

 private:
  struct Peer {
    SimTime last_activity = 0;  // on the running clock
    SimTime timeout = 0;
    bool suspected_now = false;
  };

  /// `now` on a clock that stands still while paused.
  SimTime running_clock(SimTime now) const {
    return (paused_at_ ? *paused_at_ : now) - paused_total_;
  }

  ProcessId self_;
  std::vector<Peer> peers_;
  SimTime paused_total_ = 0;            // length of every finished pause
  std::optional<SimTime> paused_at_;    // set while paused
};

}  // namespace modubft::fd
