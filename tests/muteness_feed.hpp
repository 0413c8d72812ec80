// A test decorator that runs a crash-model protocol over the ◇M detector
// fed by its own traffic: every frame the process receives, from any
// sender and of any kind, shows that sender is not mute.  This is the SMR
// crash back-end's rule (smr::Replica feeds its detector every replica
// frame), here without the replica's pause while no slot runs: the
// wrapped protocol runs from start to decision.
#pragma once

#include <memory>
#include <utility>

#include "fd/muteness_fd.hpp"
#include "sim/actor.hpp"

namespace modubft {

class MutenessFeed final : public sim::Actor {
 public:
  MutenessFeed(std::unique_ptr<sim::Actor> inner,
               std::shared_ptr<fd::MutenessDetector> detector)
      : inner_(std::move(inner)), detector_(std::move(detector)) {}

  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }

  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    detector_->on_protocol_message(from, ctx.now());
    inner_->on_message(ctx, from, payload);
  }

  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    inner_->on_timer(ctx, timer_id);
  }

 private:
  std::unique_ptr<sim::Actor> inner_;
  std::shared_ptr<fd::MutenessDetector> detector_;
};

}  // namespace modubft
