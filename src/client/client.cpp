#include "client/client.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"

namespace modubft::client {

using smr::ControlKind;
using smr::kControlSlot;

Client::Client(ClientConfig config) : config_(std::move(config)) {
  MODUBFT_EXPECTS(config_.n >= 2);
  MODUBFT_EXPECTS(!config_.ops.empty());
  MODUBFT_EXPECTS(config_.ops.size() < 0xffffffffULL);
  MODUBFT_EXPECTS(config_.contact < config_.n);
  MODUBFT_EXPECTS(config_.retry_base > 0);
  MODUBFT_EXPECTS(config_.max_outstanding >= 1);
  // Duplicate replay is complete only while every op in flight still has
  // its REPLY in the replicas' bounded cache: a retry of an evicted seq
  // would never certify.
  MODUBFT_EXPECTS(config_.max_outstanding <= smr::kReplyCacheDepth);
  retry_cap_ = config_.retry_base * 16;
  contact_ = config_.contact;
}

std::uint32_t Client::quorum() const {
  if (config_.backend == smr::Backend::kByzantine) return config_.f + 1;
  return config_.n / 2 + 1;
}

void Client::on_start(sim::Context& ctx) { submit_next(ctx); }

void Client::submit_next(sim::Context& ctx) {
  // Fill up to the outstanding cap, which the constructor holds within
  // the reply cache (docs/CLIENT.md on duplicate replay completeness).
  while (next_op_ < config_.ops.size() &&
         pending_.size() < config_.max_outstanding) {
    const std::uint64_t seq = next_op_ + 1;
    Pending p;
    p.op_index = next_op_++;
    p.sent_at = ctx.now();
    p.delay = config_.retry_base;
    ++stats_.submitted;
    auto it = pending_.emplace(seq, std::move(p)).first;
    send_request(ctx, seq, it->second);
    arm_retry(ctx, seq, it->second);
  }
}

smr::ClientRequest Client::build_request(std::uint32_t self,
                                         std::uint64_t seq) const {
  const ClientOp& op = config_.ops[seq - 1];
  smr::ClientRequest req;
  req.seq = seq;
  req.op = op.op;
  req.key = op.key;
  req.value = op.value;
  if (config_.signer != nullptr) {
    req.sig = config_.signer->sign(smr::client_request_signing_bytes(
        self, seq, req.op, req.key, req.value));
  }
  return req;
}

void Client::send_request(sim::Context& ctx, std::uint64_t seq, Pending& p) {
  (void)p;
  ctx.send(ProcessId{contact_},
           smr::encode_control_request(build_request(ctx.id().value, seq)));
}

void Client::arm_retry(sim::Context& ctx, std::uint64_t seq, Pending& p) {
  const SimTime jitter = ctx.rng().next_below(p.delay / 4 + 1);
  p.timer = ctx.set_timer(p.delay + jitter);
  timers_[p.timer] = seq;
}

void Client::on_message(sim::Context& ctx, ProcessId from,
                        const Bytes& payload) {
  if (finished_) return;
  if (from.value >= config_.n) return;  // only replicas speak to clients
  try {
    Reader r(payload);
    if (r.u64() != kControlSlot) return;  // consensus traffic: not for us
    const auto kind = static_cast<ControlKind>(r.u8());
    switch (kind) {
      case ControlKind::kReply:
        handle_reply(ctx, from, r, payload);
        return;
      case ControlKind::kBusy:
        handle_busy(ctx, from, r);
        return;
      case ControlKind::kCmdFetch:
        answer_fetch(ctx, from, r);
        return;
      default:
        return;  // relays, votes: replica-to-replica traffic
    }
  } catch (const SerialError&) {
    // Malformed frame from a faulty replica: drop.
  }
}

void Client::handle_reply(sim::Context& ctx, ProcessId from, Reader& r,
                          const Bytes& payload) {
  const smr::ClientReply reply = smr::decode_client_reply(r);
  ++stats_.replies;
  auto it = pending_.find(reply.seq);
  if (it == pending_.end()) {
    ++stats_.duplicate_replies;  // already certified (or never submitted)
    return;
  }
  // Note: a mere reply frame does NOT reset the failover streak — only a
  // certification (accept) does.  A Byzantine contact replaying stale
  // frames must not be able to pin the client to itself.

  if (config_.trust_first_reply) {
    // Negative control: no certification, no content checks.  The chaos
    // campaign proves the forged-reply attack lands through this path.
    accept(ctx, reply.seq, reply);
    return;
  }

  // Content validation: a reply that contradicts what we submitted can
  // never certify, no matter how many replicas echo it — a forged frame
  // costs the attacker a counter, not our correctness.
  const ClientOp& op = config_.ops[it->second.op_index];
  const std::uint64_t want_id =
      smr::make_client_cmd_id(ctx.id().value, reply.seq);
  if (reply.cmd_id != want_id || reply.op != op.op || reply.key != op.key ||
      reply.value != op.value) {
    ++stats_.mismatched_replies;
    return;
  }

  auto& senders = it->second.tally[payload];
  senders.insert(from.value);
  if (senders.size() >= quorum()) accept(ctx, reply.seq, reply);
}

void Client::handle_busy(sim::Context& ctx, ProcessId from, Reader& r) {
  (void)from;
  const smr::BusyFrame busy = smr::decode_busy(r);
  auto it = pending_.find(busy.seq);
  if (it == pending_.end()) return;
  ++stats_.busy;
  // The replica shed us: back off twice as hard instead of re-sending on
  // the old schedule (which is what overloaded it).  A shed is also an
  // unproductive round — a contact whose queue a Byzantine peer keeps
  // full (or that answers everything with BUSY) must count toward
  // failover, or it pins the client forever while other replicas have
  // capacity.
  note_unresponsive(ctx);
  Pending& p = it->second;
  p.delay = std::min<SimTime>(retry_cap_, p.delay * 2);
  ctx.cancel_timer(p.timer);
  timers_.erase(p.timer);
  arm_retry(ctx, busy.seq, p);
}

Bytes Client::seq_bound_frame(std::uint32_t self) const {
  smr::SeqBound sb;
  sb.client = self;
  sb.bound = config_.ops.size();
  if (config_.signer != nullptr) {
    sb.sig =
        config_.signer->sign(smr::seq_bound_signing_bytes(sb.client, sb.bound));
  }
  return smr::encode_control_seq_bound(sb);
}

void Client::answer_fetch(sim::Context& ctx, ProcessId from, Reader& r) {
  // A replica parked on a decided command id is asking Π for the body.
  // For our own ids we are the authority: any seq within the script has a
  // statically-known body (the script is deterministic), so answer with
  // the signed REQUEST even if we have not submitted that seq yet — an
  // early commit is harmless, the reply cache replays it when we get
  // there.  A seq beyond the script can never have a body: answer with a
  // signed SEQ_BOUND so the fetcher can deterministically skip the id
  // instead of re-fetching forever.
  const std::vector<std::uint64_t> ids =
      smr::decode_cmd_fetch(r, smr::StateLimits{});
  const std::uint32_t self = ctx.id().value;
  for (std::uint64_t id : ids) {
    if (smr::client_of_cmd(id) != self) continue;
    const std::uint64_t seq = smr::seq_of_cmd(id);
    if (seq >= 1 && seq <= config_.ops.size()) {
      ctx.send(from, smr::encode_control_request(build_request(self, seq)));
      ++stats_.fetches_answered;
    } else {
      ctx.send(from, seq_bound_frame(self));
      ++stats_.bounds_sent;
    }
  }
}

void Client::note_unresponsive(sim::Context& ctx) {
  ++consecutive_timeouts_;
  if (consecutive_timeouts_ >= kFailoverAfter) {
    contact_ = (contact_ + 1) % config_.n;
    consecutive_timeouts_ = 0;
    ++stats_.failovers;
    log_debug("client ", ctx.id(), " fails over to replica ", contact_);
  }
}

void Client::accept(sim::Context& ctx, std::uint64_t seq,
                    const smr::ClientReply& reply) {
  auto it = pending_.find(seq);
  AcceptedReply acc;
  acc.seq = seq;
  acc.cmd_id = reply.cmd_id;
  acc.slot = reply.slot;
  acc.op = reply.op;
  acc.key = reply.key;
  acc.value = reply.value;
  acc.latency_us = ctx.now() - it->second.sent_at;
  stats_.latencies_us.push_back(acc.latency_us);
  accepted_.push_back(std::move(acc));
  ++stats_.accepted;
  consecutive_timeouts_ = 0;  // real progress: the only streak reset
  ctx.cancel_timer(it->second.timer);
  timers_.erase(it->second.timer);
  pending_.erase(it);
  log_debug("client ", ctx.id(), " certified seq ", seq);
  submit_next(ctx);
  maybe_finish(ctx);
}

void Client::maybe_finish(sim::Context& ctx) {
  if (finished_ || next_op_ < config_.ops.size() || !pending_.empty()) {
    return;
  }
  finished_.store(true, std::memory_order_release);
  // Tell Π the whole script certified: the standing seq bound for this
  // client, signed so replicas may re-serve it to each other after we stop.
  ctx.broadcast(seq_bound_frame(ctx.id().value));
  ctx.stop();
}

void Client::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (finished_) return;
  auto t = timers_.find(timer_id);
  if (t == timers_.end()) return;
  const std::uint64_t seq = t->second;
  timers_.erase(t);
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Pending& p = it->second;

  // Timeout: the contact is dead, partitioned, or Byzantine-silent.
  ++stats_.retries;
  ++p.attempts;
  note_unresponsive(ctx);
  p.delay = std::min<SimTime>(retry_cap_, p.delay * 2);
  send_request(ctx, seq, p);
  arm_retry(ctx, seq, p);
}

}  // namespace modubft::client
