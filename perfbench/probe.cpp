#include "probe.hpp"

#include <algorithm>
#include <utility>

#include "smr/checkpoint.hpp"

namespace perfbench {

using modubft::Bytes;
using modubft::ProcessId;
using modubft::smr::ControlKind;

namespace {

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Kind of an SMR frame by its tag (see kSlotKind / kUnknownKind).
std::size_t frame_kind(const Bytes& payload) {
  if (payload.size() < 8) return kUnknownKind;
  std::uint64_t slot = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    slot |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  if (slot != modubft::smr::kControlSlot) return kSlotKind;
  if (payload.size() < 9) return kUnknownKind;
  const std::uint8_t kind = payload[8];
  if (kind < static_cast<std::uint8_t>(ControlKind::kCheckpointVote) ||
      kind > static_cast<std::uint8_t>(ControlKind::kSeqBound)) {
    return kUnknownKind;
  }
  return kind;
}

/// What handling a frame of this kind counts as.
Category category_of(std::size_t kind) {
  if (kind == kSlotKind) return kProtocol;
  if (kind == kUnknownKind) return kTimer;
  switch (static_cast<ControlKind>(kind)) {
    case ControlKind::kCheckpointVote:
    case ControlKind::kStateReq:
    case ControlKind::kStateResp:
      return kCheckpoint;
    default:
      return kClientSvc;
  }
}

/// Forwards to the substrate's Context, timing and tallying every send.
class ProbeContext final : public modubft::sim::ForwardingContext {
 public:
  ProbeContext(modubft::sim::Context& base, ReplicaTally& tally,
               std::uint64_t self_before)
      : ForwardingContext(base), tally_(tally), self_before_(self_before) {}

  void send(ProcessId to, Bytes payload) override {
    count(payload, 1);
    const Clock::time_point t0 = Clock::now();
    base_.send(to, std::move(payload));
    send_ns_ += ns_between(t0, Clock::now());
  }

  void broadcast(const Bytes& payload) override {
    count(payload, base_.n());
    const Clock::time_point t0 = Clock::now();
    base_.broadcast(payload);
    send_ns_ += ns_between(t0, Clock::now());
  }

  std::uint64_t send_ns() const { return send_ns_; }

 private:
  void count(const Bytes& payload, std::uint32_t copies) {
    const std::size_t kind = frame_kind(payload);
    tally_.sent_msgs[kind] += copies;
    tally_.sent_bytes[kind] += payload.size() * copies;
    if (kind == static_cast<std::size_t>(ControlKind::kReply)) {
      tally_.reply_marks.push_back(self_before_);
    }
  }

  ReplicaTally& tally_;
  const std::uint64_t self_before_;
  std::uint64_t send_ns_ = 0;
};

class ProbeActor final : public modubft::sim::Actor {
 public:
  ProbeActor(std::unique_ptr<modubft::sim::Actor> inner, Probe& probe,
             ReplicaTally* tally)
      : inner_(std::move(inner)), probe_(probe), tally_(tally) {}

  void on_start(modubft::sim::Context& ctx) override {
    probe_.stamp_start();
    if (tally_ == nullptr) {
      inner_->on_start(ctx);
      return;
    }
    timed(ctx, kTimer, [&](modubft::sim::Context& c) { inner_->on_start(c); });
  }

  void on_message(modubft::sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    if (tally_ == nullptr) {
      inner_->on_message(ctx, from, payload);
      return;
    }
    const std::size_t kind = note_frame(from, payload);
    ++tally_->dispatches;
    timed(ctx, category_of(kind), [&](modubft::sim::Context& c) {
      inner_->on_message(c, from, payload);
    });
  }

  // Forwarded whole: the replica's staged ingest runs only when it sees the
  // batch, so splitting it here would measure a different program.
  void on_batch(modubft::sim::Context& ctx,
                std::vector<modubft::sim::Incoming>& batch) override {
    if (tally_ == nullptr) {
      inner_->on_batch(ctx, batch);
      return;
    }
    std::array<std::uint64_t, kCategories> frames{};
    for (const modubft::sim::Incoming& m : batch) {
      ++frames[category_of(note_frame(m.from, m.payload))];
    }
    ++tally_->dispatches;
    timed_split(ctx, frames, [&](modubft::sim::Context& c) {
      inner_->on_batch(c, batch);
    });
  }

  void on_timer(modubft::sim::Context& ctx, std::uint64_t timer_id) override {
    if (tally_ == nullptr) {
      inner_->on_timer(ctx, timer_id);
      return;
    }
    timed(ctx, kTimer,
          [&](modubft::sim::Context& c) { inner_->on_timer(c, timer_id); });
  }

 private:
  std::size_t note_frame(ProcessId from, const Bytes& payload) {
    const std::size_t kind = frame_kind(payload);
    ++tally_->frames_in;
    if (from.value >= probe_.replicas()) {
      ++tally_->client_msgs[kind];
      tally_->client_bytes[kind] += payload.size();
    }
    return kind;
  }

  template <class Call>
  void timed(modubft::sim::Context& ctx, Category category, Call&& call) {
    std::array<std::uint64_t, kCategories> frames{};
    frames[category] = 1;
    timed_split(ctx, frames, std::forward<Call>(call));
  }

  /// Runs `call` under a ProbeContext and charges its self time to the
  /// categories in proportion to `frames` (a mixed batch cannot be timed
  /// frame by frame without splitting it).
  template <class Call>
  void timed_split(modubft::sim::Context& ctx,
                   const std::array<std::uint64_t, kCategories>& frames,
                   Call&& call) {
    ProbeContext pctx(ctx, *tally_, tally_->self_total());
    const Clock::time_point t0 = Clock::now();
    call(pctx);
    const std::uint64_t total = ns_between(t0, Clock::now());
    const std::uint64_t sends = std::min(total, pctx.send_ns());
    const std::uint64_t self = total - sends;
    tally_->send_ns += sends;
    std::uint64_t count = 0;
    for (std::uint64_t f : frames) count += f;
    std::uint64_t charged = 0;
    std::size_t last = 0;
    for (std::size_t c = 0; c < kCategories; ++c) {
      if (frames[c] == 0) continue;
      const std::uint64_t share = self * frames[c] / count;
      tally_->self_ns[c] += share;
      charged += share;
      last = c;
    }
    tally_->self_ns[last] += self - charged;  // rounding remainder
  }

  std::unique_ptr<modubft::sim::Actor> inner_;
  Probe& probe_;
  ReplicaTally* const tally_;
};

}  // namespace

const char* kind_name(std::size_t kind) {
  static constexpr const char* kNames[kKinds] = {
      "slot",     "checkpoint", "state_req", "state_resp",
      "request",  "reply",      "busy",      "cmd_relay",
      "cmd_fetch", "client_done", "seq_bound", "unknown"};
  return kind < kKinds ? kNames[kind] : "unknown";
}

std::uint64_t ReplicaTally::self_total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t ns : self_ns) sum += ns;
  return sum;
}

Probe::Probe(bool trace, std::uint32_t replicas)
    : trace_(trace), replicas_(replicas) {}

void Probe::arm() {
  armed_ = Clock::now();
  first_start_ns_.store(-1);
}

void Probe::stamp_start() {
  const std::int64_t ns = static_cast<std::int64_t>(
      ns_between(armed_, Clock::now()));
  std::int64_t seen = -1;
  first_start_ns_.compare_exchange_strong(seen, ns);
}

double Probe::setup_s() const {
  return static_cast<double>(first_start_ns_.load()) * 1e-9;
}

std::unique_ptr<modubft::sim::Actor> Probe::wrap(
    std::unique_ptr<modubft::sim::Actor> inner) {
  ReplicaTally* tally = nullptr;
  if (trace_) {
    std::lock_guard<std::mutex> lock(mu_);
    tally = &lives_.emplace_back();
  }
  return std::make_unique<ProbeActor>(std::move(inner), *this, tally);
}

}  // namespace perfbench
