// The wall-clock node runtime: the "real concurrency" substrates.
//
// Runs the same Actor programs as the deterministic simulator, but each
// process lives on its own OS thread, deliveries queue in one MPSC
// mailbox per node, time is the wall clock, and interleavings are
// whatever the scheduler produces.  This is the deployment-shaped
// substrate: it validates that the protocols do not secretly depend on
// the simulator's determinism, and it exercises the locking/timer
// plumbing a real system needs.
//
// One runtime, two wires.  Everything a node does — its thread, timers,
// crash/restart dormancy, delivery tap, counters and the run budget —
// lives here.  Only the wire a frame to a peer travels through varies:
// by default it is pushed straight into the receiver's mailbox (the
// threaded substrate); `TcpCluster` overrides the wire hooks to carry it
// over loopback sockets and hands arriving frames back through deliver().
//
// Channel guarantees match the model: reliable and FIFO per ordered pair
// (senders push sequentially, mailboxes preserve per-sender order; the
// TCP wire re-establishes the same contract below the framing layer).
// Crash injection drops a node silently at a chosen point in time.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "sim/actor.hpp"
#include "sim/simulation.hpp"
#include "transport/mailbox.hpp"

namespace modubft::transport {

/// Maximum deliveries drained from a mailbox into one Actor::on_batch
/// dispatch: small enough that timers stay responsive.
inline constexpr std::size_t kMaxBatch = 64;

struct ClusterConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  /// Wall-clock budget for run(); nodes still running afterwards are
  /// abandoned (their threads are joined after a close).
  std::chrono::milliseconds budget{10'000};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  virtual ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Installs the actor for `id`.  Call for every id before run().
  void set_actor(ProcessId id, std::unique_ptr<sim::Actor> actor);

  /// Schedules a silent halt of `id` after `after` of wall-clock run time:
  /// the node's actor stops receiving, sending and firing timers.  Frames
  /// already handed to the wire may still reach peers (they are "in the
  /// channel", as in the simulator's model).
  void crash_after(ProcessId id, std::chrono::microseconds after);

  /// Schedules a silent halt of `id` on its own progress instead of at a
  /// set time: the halt happens when `id`'s callback calls crash_now().
  /// Like a crash_after victim, `id` is never named a straggler.
  void crash_on_trigger(ProcessId id);

  /// The progress-kill hook of a node given to crash_on_trigger: halts it
  /// now.  Call it only from that node's own callback, so no other thread
  /// touches its state; whatever the callback sends from then on is
  /// suppressed.
  void crash_now(ProcessId id);

  /// Schedules a restart of a node previously given to crash_after or
  /// crash_on_trigger: at `after` (from the run epoch, > the crash
  /// instant; for a crash_on_trigger node, from the instant crash_now
  /// fired), `factory()` builds a FRESH actor that takes over the node —
  /// same id, same rng stream, empty timer set; deliveries that arrived
  /// during the outage are discarded.  One-shot: a restart still pending
  /// when every other node has stopped is abandoned, as the simulator
  /// does (no peer is left to answer the fresh life), and so is one whose
  /// deadline falls after the cluster began stopping (budget expiry /
  /// teardown); never a hang.
  void set_restart(ProcessId id, std::chrono::microseconds after,
                   std::function<std::unique_ptr<sim::Actor>()> factory);

  /// Optional observer invoked on every delivery, right before the
  /// receiving actor's on_message.  Calls are serialized by an internal
  /// mutex (they come from every node thread), so the tap itself needs no
  /// locking; `Delivery::payload` points at a copy made on the node thread
  /// *outside* that mutex, and is only valid for the call's duration.
  /// Times are µs since the run epoch — the same clock crash_after uses;
  /// `send_time` is when the frame entered the receiver's mailbox (the
  /// send itself on the in-memory wire, the arrival on TCP).
  void set_delivery_tap(std::function<void(const sim::Delivery&)> tap);

  /// Starts all node threads and blocks until every node stopped, the
  /// caller's end condition `done` holds, or the budget expires.  A
  /// crashed node awaiting its restart counts as stopped: once every node
  /// stopped or awaits a restart, the run ends and those restarts are
  /// abandoned.  `done` is checked in the same 2 ms poll, on the calling
  /// thread, so it may read only state that is safe to read while the
  /// nodes run; once it holds the run ends as if every node had stopped,
  /// and a pending restart is abandoned too.  Returns true iff the run
  /// ended either way; on budget expiry the stragglers are reported via
  /// unstopped() and a warning log naming each culprit.
  bool run(const std::function<bool()>& done = nullptr);

  bool stopped(ProcessId id) const;

  /// Nodes that had not stopped when the run() budget expired (empty after
  /// a clean run) — a hung node is a named test failure, not a silent
  /// budget expiry.  A node scheduled to crash for good is never named,
  /// whether or not its crash fired before the budget ran out.
  std::vector<ProcessId> unstopped() const;

  /// Aggregate message counters, comparable field-for-field with
  /// sim::Simulation::stats(): sends/bytes are counted at the
  /// Context::send boundary (before any framing), deliveries at actor
  /// dispatch; events_executed counts actor callbacks (message + timer
  /// dispatches).
  sim::Stats stats() const;

  /// Wall-clock span of the completed run: from the epoch (the wire is
  /// open, no node has started) until every node thread has joined.
  std::chrono::microseconds elapsed() const { return elapsed_; }

 protected:
  // --- The wire.  The in-memory default delivers at once; TcpCluster
  // overrides all four hooks.  A node's sends to itself never reach the
  // wire: the runtime loops them back into its own mailbox. ---

  /// Called by run() before the epoch, on the calling thread.
  virtual void open_wire() {}
  /// Carries one frame from `from` to the peer `to` (≠ from); called on
  /// the sender's node thread.
  virtual void transmit(ProcessId from, ProcessId to, Bytes payload);
  /// Carries one frame from `from` to every peer.
  virtual void transmit_to_peers(ProcessId from, const Bytes& payload);
  /// Called by run() once every node thread has joined; a subclass's
  /// destructor calls it too, so it must be idempotent.
  virtual void close_wire() {}

  /// Hands a frame for `to` to that node's mailbox, stamped with the time
  /// since the epoch.  Callable from any thread.
  void deliver(ProcessId from, ProcessId to, Bytes payload);

  /// Stops and joins every node thread; idempotent.  run() calls it as the
  /// run ends; a subclass's destructor calls it before close_wire(), so no
  /// node thread outlives the wire it sends through.
  void stop_nodes();

 private:
  struct Envelope {
    ProcessId from;
    Bytes payload;
    /// µs since the run epoch at push time (0 for pre-epoch pushes).
    SimTime sent_at = 0;
  };

  struct Node;
  class NodeContext;

  void node_main(Node& node);
  void node_pump(Node& node, NodeContext& ctx);
  bool all_stopped();
  SimTime since_epoch() const;
  void tap_delivery(const Envelope& env, ProcessId to);
  /// True once `done` holds; abandons every pending restart then.
  bool ended(const std::function<bool()>& done);

  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_{};
  std::chrono::microseconds elapsed_{0};
  std::vector<ProcessId> unstopped_;
  bool ran_ = false;

  struct AtomicStats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_delivered{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> events_executed{0};
  };
  AtomicStats stats_;

  std::mutex tap_mu_;
  std::function<void(const sim::Delivery&)> tap_;

  // Guards every Node::dormant and abandon_restarts_: a dormant node comes
  // back only under it, so all_stopped() and ended() see no restart begin
  // mid-check.
  std::mutex restart_mu_;
  bool abandon_restarts_ = false;
};

}  // namespace modubft::transport
