// Replica probe: the benchmark's outside view of one scenario run.
//
// Probe::wrap is installed as SmrScenarioConfig::wrap_actor, so every
// replica life (restarted ones included) runs under a ProbeActor.  The
// program itself is not instrumented; everything here is measured at the
// substrate → replica boundary and at the replica → substrate send
// boundary.
//
// Untraced mode forwards every call unchanged and only stamps the wall
// time of the first on_start, which ends the scenario's set-up phase.
// Traced mode also times every on_start / on_message / on_batch /
// on_timer call, times every send and broadcast through a forwarding
// Context, and tallies the sent frames by SMR tag.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sim/actor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Frame kinds by SMR tag: 0 is a consensus slot, 1..10 are the control
/// kinds on the reserved all-ones slot (smr::ControlKind), 11 is anything
/// that does not parse as an SMR frame.
inline constexpr std::size_t kSlotKind = 0;
inline constexpr std::size_t kUnknownKind = 11;
inline constexpr std::size_t kKinds = 12;

const char* kind_name(std::size_t kind);

/// What a replica call was spent on, by the kind of frame it handled.
enum Category : std::size_t {
  kProtocol = 0,  // consensus-slot frames (bft or consensus back-end)
  kClientSvc,     // REQUEST, REPLY, BUSY, CMD_RELAY, CMD_FETCH, DONE, SEQ_BOUND
  kCheckpoint,    // CHECKPOINT, STATE_REQ, STATE_RESP
  kTimer,         // on_timer, on_start and unparsable frames
  kCategories,
};

/// Counters of one replica life.  Written only by the thread that runs the
/// life's callbacks; read after the run has joined every thread.
struct ReplicaTally {
  std::array<std::uint64_t, kCategories> self_ns{};
  std::uint64_t send_ns = 0;
  std::uint64_t dispatches = 0;  // on_message + on_batch calls
  std::uint64_t frames_in = 0;
  /// Sent frames by kind (a broadcast counts once per destination).
  std::array<std::uint64_t, kKinds> sent_msgs{};
  std::array<std::uint64_t, kKinds> sent_bytes{};
  /// Frames received from clients (ids >= n), by kind.
  std::array<std::uint64_t, kKinds> client_msgs{};
  std::array<std::uint64_t, kKinds> client_bytes{};
  /// Self time accumulated by completed calls when each REPLY was sent.
  std::vector<std::uint64_t> reply_marks;

  std::uint64_t self_total() const;
};

class Probe {
 public:
  Probe(bool trace, std::uint32_t replicas);

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Marks the call into the scenario: set-up time runs from here.
  void arm();

  /// Wraps one replica life (the SmrScenarioConfig::wrap_actor hook).
  std::unique_ptr<modubft::sim::Actor> wrap(
      std::unique_ptr<modubft::sim::Actor> inner);

  /// Seconds from arm() to the first replica on_start.
  double setup_s() const;

  bool traced() const { return trace_; }
  std::uint32_t replicas() const { return replicas_; }

  /// Every replica life wrapped so far.  Call only after the run.
  const std::deque<ReplicaTally>& lives() const { return lives_; }

  void stamp_start();

 private:
  const bool trace_;
  const std::uint32_t replicas_;
  Clock::time_point armed_{};
  std::atomic<std::int64_t> first_start_ns_{-1};
  // Guards lives_: restarted lives are wrapped on node threads.
  std::mutex mu_;
  std::deque<ReplicaTally> lives_;
};

}  // namespace perfbench
