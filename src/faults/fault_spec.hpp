// Fault-injection vocabulary: every failure class of paper §2's taxonomy.
//
// Muteness failures: kCrash (halt), kMute (stop sending from a round on).
// Non-muteness failures: value corruption, statement duplication, spurious
// statements, misevaluated expressions, substituted messages, forged
// signatures, malformed certificates, equivocation, irrelevant initial
// values.  Experiment E4 injects each class in isolation and asserts it is
// caught by the module the methodology assigns to it.
#pragma once

#include <cstdint>
#include <optional>

#include "common/ids.hpp"

namespace modubft::faults {

enum class Behavior : std::uint8_t {
  kNone = 0,

  // --- muteness failures ---
  /// Process crash at `at` (simulated by the network substrate).
  kCrash,
  /// Stops sending all protocol messages once its round reaches
  /// `from_round` (mute w.r.t. the algorithm, but alive).
  kMute,

  // --- non-muteness failures ---
  /// Corrupts the estimate vector inside outgoing CURRENT messages
  /// (corruption of a local variable's value).
  kCorruptVector,
  /// Re-labels outgoing round-r messages as round r+1 (misevaluation /
  /// corruption of the round variable).
  kWrongRound,
  /// Sends every CURRENT twice (duplication of a statement).
  kDuplicateCurrent,
  /// Sends every NEXT twice (duplication of a statement).
  kDuplicateNext,
  /// Flips a signature bit on outgoing messages (forged identity /
  /// corrupted signature).
  kBadSignature,
  /// Strips the certificate from outgoing CURRENT/NEXT/DECIDE messages
  /// (corrupted certificate).
  kStripCertificate,
  /// Sends NEXT where the program says CURRENT (substituted message —
  /// misevaluated condition statement).
  kSubstituteNext,
  /// Broadcasts a DECIDE without a deciding quorum (misevaluation of the
  /// decision condition).
  kPrematureDecide,
  /// Coordinator equivocation: different halves of the group receive
  /// different vectors in its CURRENT.
  kEquivocate,
  /// Proposes an irrelevant initial value.  Undetectable by design (paper
  /// §1) — used to demonstrate the Vector Validity bound, not detection.
  kLieInit,
  /// Sends an unsolicited CURRENT although not the coordinator, certified
  /// with whatever it holds (execution of a spurious statement).
  kSpuriousCurrent,
  /// Relabels outgoing round-r CURRENT/NEXT as round r+5 and re-signs
  /// (future-round injection: floods receivers' footnote-5 buffers with
  /// votes for rounds nobody reached).
  kFutureRound,
  /// Replays its first recorded CURRENT/NEXT verbatim — stale round,
  /// original signature — alongside every later-round send (stale-round
  /// injection: the frame is authentic, only its timing is wrong).
  kStaleReplay,
  /// Certificate replay: keeps the certificate of its first CURRENT/NEXT
  /// and attaches that stale certificate to every later CURRENT/NEXT,
  /// re-signed (the witness set no longer matches the claimed round).
  kReplayCert,
  /// Certificate truncation: drops half the members from outgoing
  /// CURRENT/DECIDE certificates, re-signed (witness set below quorum).
  kTruncateCert,
  /// Certificate forgery: tampers one member's core inside the outgoing
  /// certificate without being able to re-sign it (a Byzantine process
  /// cannot forge others' signatures), then re-signs the envelope.
  kForgeCert,
  /// Selective muteness: from `from_round` on, drops every message
  /// addressed to the lower half of the group while staying talkative
  /// towards the rest (mute w.r.t. some, not all).
  kSelectiveMute,
  /// Dual-quorum equivocation (split_brain.hpp): the round-1 coordinator
  /// waits for ALL n INITs and certifies two different vectors, one per
  /// half of the group.  Only valid for process 0 (the round-1
  /// coordinator); instantiated by the scenario runner as a
  /// SplitBrainCoordinator instead of a wrapped BftProcess.
  kSplitBrain,
};

const char* behavior_name(Behavior b);

/// True for the behaviours whose detection happens via ◇M suspicion rather
/// than the non-muteness faulty set.
inline bool is_muteness(Behavior b) {
  return b == Behavior::kCrash || b == Behavior::kMute;
}

struct FaultSpec {
  ProcessId who;
  Behavior behavior = Behavior::kNone;
  /// kCrash: crash instant.
  SimTime at = 0;
  /// kMute / round-scoped behaviours: first affected round.
  Round from_round{1};
};

/// Substrate-independent crash schedule entry: at `at` µs after the run
/// starts, `who` halts silently.  Each runtime adapter translates the
/// instant into its own clock domain — simulated time on sim::Simulation,
/// wall-clock-after-epoch on the threaded and TCP clusters — so one spec
/// drives sim::Simulation::crash_at and Cluster::crash_after (threads and
/// TCP) alike.
///
/// A progress kill (`after_commit`, SMR scenarios only) fires on the
/// victim's own progress instead: `who` halts the moment it commits slot
/// `*after_commit`, however fast or slow the host runs.  Nothing it would
/// send from then on leaves, that slot's replies and checkpoint vote
/// included.  `at` is unused.
///
/// Only the substrate acts on a spec: no SMR replica is told of it, and a
/// survivor learns of the kill from the victim's silence.
struct CrashSpec {
  ProcessId who;
  /// Microseconds from run start (substrate clock domain).
  SimTime at = 0;
  /// Kill/restart schedule: if set, the process comes back at `restart_at`
  /// (same clock domain, must be > `at`) as a FRESH actor with no memory
  /// of its former life — the recovery subsystem's job is to re-learn the
  /// state.  For a progress kill, `restart_at` is a delay counted from the
  /// instant the kill fired, so a slow host cannot put the restart before
  /// the kill.  Restart events are one-shot: a restart still pending when
  /// every other process has stopped is abandoned, as is one that would
  /// fire after the substrate began stopping; never a hang.
  std::optional<SimTime> restart_at;
  /// Progress kill: the slot whose commit halts `who`; unset for a kill at
  /// `at`.
  std::optional<std::uint64_t> after_commit = std::nullopt;
};

}  // namespace modubft::faults
