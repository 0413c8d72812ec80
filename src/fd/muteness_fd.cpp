#include "fd/muteness_fd.hpp"

#include "common/check.hpp"

namespace modubft::fd {

MutenessDetector::MutenessDetector(std::uint32_t n, ProcessId self,
                                   MutenessConfig config)
    : self_(self) {
  MODUBFT_EXPECTS(self.value < n);
  MODUBFT_EXPECTS(config.initial_timeout > 0);
  peers_.resize(n);
  for (Peer& p : peers_) p.timeout = config.initial_timeout;
}

void MutenessDetector::on_protocol_message(ProcessId from, SimTime now) {
  MODUBFT_EXPECTS(from.value < peers_.size());
  Peer& p = peers_[from.value];
  if (p.suspected_now) {
    // The peer was wrongly suspected: widen its allowance.
    p.timeout *= 2;
    p.suspected_now = false;
  }
  p.last_activity = running_clock(now);
}

void MutenessDetector::on_new_round(SimTime now) {
  const SimTime t = running_clock(now);
  for (Peer& p : peers_) {
    // A new round resets expectations but keeps each peer's learned timeout.
    if (p.last_activity < t) p.last_activity = t;
    p.suspected_now = false;
  }
}

void MutenessDetector::pause(SimTime now) {
  if (!paused_at_) paused_at_ = now;
}

void MutenessDetector::resume(SimTime now) {
  if (!paused_at_) return;
  MODUBFT_EXPECTS(now >= *paused_at_);
  paused_total_ += now - *paused_at_;
  paused_at_.reset();
}

bool MutenessDetector::suspects(ProcessId q, SimTime now) {
  MODUBFT_EXPECTS(q.value < peers_.size());
  if (q == self_) return false;
  Peer& p = peers_[q.value];
  const bool mute = running_clock(now) > p.last_activity + p.timeout;
  p.suspected_now = mute;
  return mute;
}

SimTime MutenessDetector::timeout_of(ProcessId q) const {
  MODUBFT_EXPECTS(q.value < peers_.size());
  return peers_[q.value].timeout;
}

}  // namespace modubft::fd
