// Actor programming model shared by every runtime.
//
// Protocols are written once against (Actor, Context) and run unchanged on
// the deterministic simulator (sim::Simulation), on the threaded in-memory
// transport (transport::NodeRuntime), and under decorating wrappers
// (Byzantine mutators, the SMR slot multiplexer, the five-module BFT
// pipeline).  Context is therefore an abstract interface: wrappers
// implement it to intercept sends, and each runtime provides its own
// concrete binding.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"

namespace modubft::sim {

/// Handle through which a running actor interacts with its world.  Only
/// valid for the duration of the callback it is passed to.
class Context {
 public:
  virtual ~Context() = default;

  /// This process's identity.
  virtual ProcessId id() const = 0;

  /// Total number of processes n.
  virtual std::uint32_t n() const = 0;

  /// Current (simulated or wall-clock-derived) time in µs.
  virtual SimTime now() const = 0;

  /// Sends `payload` to `to` over the reliable FIFO channel.
  virtual void send(ProcessId to, Bytes payload) = 0;

  /// Sends `payload` to every process including the sender itself (the
  /// paper's "send to Π" broadcast).
  virtual void broadcast(const Bytes& payload) = 0;

  /// Arms a one-shot timer firing after `delay` µs; returns its id.
  virtual std::uint64_t set_timer(SimTime delay) = 0;

  /// Cancels a previously armed timer (no-op if it already fired).
  virtual void cancel_timer(std::uint64_t timer_id) = 0;

  /// Per-actor deterministic randomness.
  virtual Rng& rng() = 0;

  /// Marks this actor as halted: no further callbacks will be invoked.
  /// (A decided consensus participant "returns"; paper Fig 2 line 2.)
  virtual void stop() = 0;
};

/// One delivered message inside a batch dispatch (see Actor::on_batch).
struct Incoming {
  ProcessId from;
  Bytes payload;
};

/// A deterministic protocol participant.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Invoked once when the process starts.
  virtual void on_start(Context& ctx) { (void)ctx; }

  /// Invoked for each delivered message.
  virtual void on_message(Context& ctx, ProcessId from,
                          const Bytes& payload) = 0;

  /// Invoked when the runtime drained several deliveries at once (the
  /// wall-clock substrates batch their mailboxes; the deterministic
  /// simulator never calls this).  The batch is in delivery order — the
  /// index of each message is its ordering ticket, and the default
  /// implementation dispatches strictly in ticket order, which is the
  /// observable-equivalence contract every override must preserve (an
  /// override may precompute across the batch, but protocol effects must
  /// occur as if each message were delivered alone, in order).
  virtual void on_batch(Context& ctx, std::vector<Incoming>& batch) {
    for (Incoming& m : batch) on_message(ctx, m.from, m.payload);
  }

  /// Invoked when a timer armed via Context::set_timer fires.
  virtual void on_timer(Context& ctx, std::uint64_t timer_id) {
    (void)ctx;
    (void)timer_id;
  }
};

/// A Context decorator that forwards everything to an underlying Context.
/// Wrappers override just the operations they intercept.
class ForwardingContext : public Context {
 public:
  explicit ForwardingContext(Context& base) : base_(base) {}

  ProcessId id() const override { return base_.id(); }
  std::uint32_t n() const override { return base_.n(); }
  SimTime now() const override { return base_.now(); }
  void send(ProcessId to, Bytes payload) override {
    base_.send(to, std::move(payload));
  }
  void broadcast(const Bytes& payload) override { base_.broadcast(payload); }
  std::uint64_t set_timer(SimTime delay) override {
    return base_.set_timer(delay);
  }
  void cancel_timer(std::uint64_t timer_id) override {
    base_.cancel_timer(timer_id);
  }
  Rng& rng() override { return base_.rng(); }
  void stop() override { base_.stop(); }

 protected:
  Context& base_;
};

}  // namespace modubft::sim
