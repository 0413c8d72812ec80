#include "smr/client_service.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "smr/replica.hpp"

namespace modubft::smr {

ClientService::ClientService(const ReplicaConfig& config, CommandTable& table,
                             const crypto::Verifier* verifier)
    : config_(config), table_(table), verifier_(verifier) {
  // The reply cache holds seq_window replies per client: a deeper cache
  // would write snapshots a peer's decoder rejects.
  MODUBFT_EXPECTS(config.client.seq_window >= 1 &&
                  config.client.seq_window <= StateLimits{}.max_cached_replies);
  // Authenticated mode needs client public keys: the verifier must cover
  // process ids [n, n + num_clients).
  MODUBFT_EXPECTS(!config.client.authenticate || verifier != nullptr);
}

ClientService::Next ClientService::on_frame(sim::Context& ctx, ProcessId from,
                                            ControlKind kind,
                                            const Bytes& body) {
  Reader r(body);
  switch (kind) {
    case ControlKind::kRequest:
      return on_request(ctx, from, r);
    case ControlKind::kCmdRelay:
      return on_relay(from, r);
    case ControlKind::kCmdFetch:
      on_fetch(ctx, from, r);
      return Next::kNone;
    case ControlKind::kSeqBound:
      return on_seq_bound(from, r);
    default:
      return Next::kNone;
  }
}

bool ClientService::is_client(std::uint32_t pid) const {
  return pid >= config_.n && pid - config_.n < config_.client.num_clients;
}

bool ClientService::refuted(std::uint64_t id) const {
  const auto b = bounds_.find(client_of_cmd(id));
  return b != bounds_.end() && seq_of_cmd(id) > b->second.seq;
}

bool ClientService::eligible(std::uint64_t id) const {
  if (refuted(id)) return false;
  // Count-anchored (not max-anchored) window: under committed-seq gaps a
  // max anchor could run ahead of what the client provably submitted,
  // while the count never exceeds it.
  return seq_of_cmd(id) <=
         table_.committed_count(client_of_cmd(id)) + config_.client.seq_window;
}

std::optional<std::vector<std::uint64_t>> ClientService::commit_batch(
    sim::Context& ctx, const std::vector<std::uint64_t>& decided) {
  std::set<std::uint64_t> ids;
  for (std::uint64_t id : decided) {
    if (id == 0 || table_.committed(id) || !plausible(id)) continue;
    // Eligibility is deliberately independent of local body knowledge: an
    // ineligible id is skipped even when a body is present (an "apply if I
    // happen to hold it" rule would fork the stores between replicas with
    // different relay histories).
    if (!eligible(id)) {
      ++stats_.ineligible_skips;
      continue;
    }
    ids.insert(id);
  }
  std::vector<std::uint64_t> batch(ids.begin(), ids.end());
  if (!bodies_ready(ctx, batch)) return std::nullopt;
  return batch;
}

bool ClientService::bodies_ready(sim::Context& ctx,
                                 const std::vector<std::uint64_t>& ids) {
  // The missing-body rule: a plausible, unrefuted client id whose body is
  // not held.
  std::vector<std::uint64_t> missing;
  for (std::uint64_t id : ids) {
    if (table_.body(id) == nullptr && plausible(id) && !refuted(id)) {
      missing.push_back(id);
    }
  }
  if (missing.empty()) return true;
  // Decided (or quorum-replayed) but not locally held: park and fetch.
  // Every such id is resolvable — the admitting replica and the owning
  // client can both serve the signed body (the client can serve ANY seq
  // of its deterministic script), and a fabricated seq beyond the script
  // is answered with a signed SEQ_BOUND that refutes it, unparking the
  // frontier without a body.
  ++stats_.parked_commits;
  request_bodies(ctx, missing);
  return false;
}

void ClientService::reply(sim::Context& ctx, std::uint64_t slot,
                          const Command& cmd) {
  const std::uint32_t client = client_of_cmd(cmd.id);
  if (!is_client(client)) return;
  // Every committing replica answers the owning client; the client
  // certifies at f+1 (Byzantine) / majority (crash) matching replies.  The
  // cached frame also serves duplicate replay, so it must exist before the
  // send (the bytes are identical either way).
  const std::uint64_t seq = seq_of_cmd(cmd.id);
  ClientReply reply;
  reply.seq = seq;
  reply.cmd_id = cmd.id;
  reply.slot = slot;
  reply.op = cmd.op;
  reply.key = cmd.key;
  reply.value = cmd.value;
  auto& cache = replies_[client];
  auto ins = cache.emplace(seq, encode_control_reply(reply)).first;
  ctx.send(ProcessId{client}, ins->second);
  ++stats_.replies_sent;
  // Keep the client's seq_window highest seqs.
  while (cache.size() > config_.client.seq_window) cache.erase(cache.begin());
}

bool ClientService::on_timer(sim::Context& ctx, std::uint64_t timer_id) {
  if (fetch_timer_ == 0 || timer_id != fetch_timer_) return false;
  fetch_timer_ = 0;
  if (!last_fetch_.empty()) {
    // Frontier (or suffix replay) still parked: ask again.
    send_fetch(ctx);
    fetch_timer_ = ctx.set_timer(config_.retry_delay);
  }
  return true;
}

bool ClientService::fetch_needs(std::uint64_t id) const {
  return std::find(last_fetch_.begin(), last_fetch_.end(), id) !=
         last_fetch_.end();
}

bool ClientService::admissible(ProcessId from, const CmdRelay& body) {
  if (body.seq == 0 || body.seq > 0xffffffffULL) {
    ++stats_.rejects;
    return false;
  }
  // The body is authenticated by the OWNING CLIENT's signature, never by a
  // relaying replica: a Byzantine relayer can neither fabricate a body for
  // a real client's seq nor feed divergent bodies to different peers,
  // because no second validly-signed body exists for one id.
  return authentic(from, body.client,
                   client_request_signing_bytes(body.client, body.seq,
                                                body.op, body.key, body.value),
                   body.sig);
}

void ClientService::admit(const CmdRelay& body,
                          std::optional<std::uint32_t> origin) {
  Command cmd;
  cmd.id = make_client_cmd_id(body.client, body.seq);
  cmd.op = body.op;
  cmd.key = body.key;
  cmd.value = body.value;
  if (table_.admit(std::move(cmd), body.sig, origin)) {
    stats_.queue_peak = std::max<std::uint64_t>(stats_.queue_peak,
                                                table_.pending().size());
  }
}

bool ClientService::authentic(ProcessId from, std::uint32_t client,
                              const Bytes& preimage, const Bytes& sig) {
  if (!is_client(client)) {
    ++stats_.rejects;
    return false;
  }
  if (config_.client.authenticate) {
    // Signed: acceptable from any sender (peers relay bodies, and re-serve
    // bounds to fetchers after the client stops).
    if (!verifier_->verify(ProcessId{client}, preimage, sig)) {
      ++stats_.auth_rejects;
      return false;
    }
  } else if (from.value != client && from.value >= config_.n) {
    ++stats_.rejects;  // unauthenticated mode trusts channels, not frames
    return false;
  }
  return true;
}

ClientService::Next ClientService::record_bound(std::uint32_t client,
                                                std::uint64_t bound,
                                                Bytes frame) {
  const auto it = bounds_.find(client);
  if (it != bounds_.end() && it->second.seq <= bound) return Next::kNone;
  bounds_[client] = Bound{bound, std::move(frame)};
  ++stats_.bounds_recorded;
  return Next::kResume;
}

void ClientService::request_bodies(sim::Context& ctx,
                                   const std::vector<std::uint64_t>& missing) {
  if (missing != last_fetch_) {
    last_fetch_ = missing;
    send_fetch(ctx);
  }
  if (fetch_timer_ == 0) fetch_timer_ = ctx.set_timer(config_.retry_delay);
}

void ClientService::send_fetch(sim::Context& ctx) {
  // The replicas, and each missing id's owning client: it serves any seq
  // of its own script and refutes the rest.
  const Bytes frame = encode_control_fetch(last_fetch_);
  send_to_replicas(ctx, config_.n, frame);
  std::set<std::uint32_t> owners;
  for (std::uint64_t id : last_fetch_) {
    if (is_client(client_of_cmd(id))) owners.insert(client_of_cmd(id));
  }
  for (std::uint32_t client : owners) ctx.send(ProcessId{client}, frame);
  ++stats_.fetches_sent;
}

ClientService::Next ClientService::on_request(sim::Context& ctx,
                                              ProcessId from, Reader& r) {
  if (!is_client(from.value)) {
    ++stats_.rejects;
    return Next::kNone;
  }
  const ClientRequest req = decode_client_request(r);
  const CmdRelay body{from.value, req.seq, req.op, req.key, req.value,
                      req.sig};
  if (!admissible(from, body)) return Next::kNone;
  ++stats_.requests;
  const std::uint64_t id = make_client_cmd_id(from.value, req.seq);
  if (table_.committed(id)) {
    // Exactly-once: already applied.  Replay the cached reply — the retry
    // means the client has not certified yet.  Every replica that
    // committed the op sent its REPLY then, so over reliable channels a
    // replay only answers a retry that outran those replies.  The cache
    // keeps the client's seq_window highest committed seqs; an evicted
    // seq is not replayed (docs/CLIENT.md).
    ++stats_.duplicates;
    auto t = replies_.find(from.value);
    if (t != replies_.end()) {
      auto rep = t->second.find(req.seq);
      if (rep != t->second.end()) {
        ctx.send(from, rep->second);
        ++stats_.replays;
      }
    }
    return Next::kNone;
  }
  if (table_.body(id) != nullptr) {
    // In flight: the commit-time reply will answer this retry too.
    ++stats_.duplicates;
    return Next::kNone;
  }
  const std::size_t queued = table_.pending().size();
  if (queued >= config_.client.max_pending && !fetch_needs(id)) {
    // Deterministic load-shedding: the admission queue is full, tell the
    // client to back off instead of queueing unboundedly.  A body the
    // parked frontier is fetching is exempt: the park keeps the queue from
    // emptying, so shedding it would starve the exact command progress
    // depends on.
    ++stats_.sheds;
    ctx.send(from, encode_control_busy(
                       BusyFrame{req.seq, static_cast<std::uint32_t>(queued)}));
    return Next::kNone;
  }
  admit(body, std::nullopt);
  ++stats_.admitted;
  send_to_replicas(ctx, config_.n, encode_control_relay(body));
  ++stats_.relays_sent;
  return Next::kPump;
}

ClientService::Next ClientService::on_relay(ProcessId from, Reader& r) {
  if (from.value >= config_.n) {
    ++stats_.rejects;  // only replicas relay bodies
    return Next::kNone;
  }
  const CmdRelay relay = decode_cmd_relay(r);
  if (!admissible(from, relay)) return Next::kNone;
  const std::uint64_t id = make_client_cmd_id(relay.client, relay.seq);
  ++stats_.relays_received;
  // Bodies the parked frontier is fetching bypass both capacity drops:
  // progress depends on them, the fetch list is bounded by the batch size,
  // and frontier progress releases them immediately.
  if (table_.body(id) == nullptr && !table_.committed(id) &&
      !fetch_needs(id)) {
    if (table_.pending().size() >=
        static_cast<std::size_t>(config_.client.max_pending) * config_.n) {
      // Peers collectively admit at most n × max_pending; beyond that the
      // relay is a flood and is dropped.
      ++stats_.relays_dropped;
      return Next::kNone;
    }
    // Per-origin bound: ONE misbehaving relayer is capped at its own
    // max_pending admissions instead of filling the whole collective
    // budget and starving direct client admissions into BUSY.
    if (table_.origin_load(from.value) >= config_.client.max_pending) {
      ++stats_.origin_drops;
      return Next::kNone;
    }
  }
  admit(relay, from.value);
  // A parked frontier or a stalled suffix replay may now advance.
  return Next::kResume;
}

void ClientService::on_fetch(sim::Context& ctx, ProcessId from, Reader& r) {
  if (from.value == ctx.id().value) return;  // own broadcast echo
  if (from.value >= config_.n) {
    ++stats_.rejects;  // only replicas fetch bodies
    return;
  }
  const std::vector<std::uint64_t> ids = decode_cmd_fetch(r, StateLimits{});
  for (std::uint64_t id : ids) {
    const std::uint32_t client = client_of_cmd(id);
    if (!is_client(client)) continue;
    const Command* cmd = table_.body(id);
    const Bytes* sig = table_.sig(id);
    // Authenticated mode only serves bodies it can prove: a sig-less body
    // (e.g. planted directly into a faulty replica's table) would be
    // rejected by every honest receiver anyway.
    if (cmd != nullptr && (!config_.client.authenticate || sig != nullptr)) {
      const CmdRelay relay{client, seq_of_cmd(id), cmd->op, cmd->key,
                           cmd->value, sig != nullptr ? *sig : Bytes{}};
      ctx.send(from, encode_control_relay(relay));
      ++stats_.fetches_served;
      continue;
    }
    // No servable body — but a recorded seq bound refuting the id unparks
    // the fetcher just as well: relay the signed bound frame.
    if (refuted(id)) {
      ctx.send(from, bounds_.at(client).frame);
      ++stats_.fetches_served;
    }
  }
}

ClientService::Next ClientService::on_seq_bound(ProcessId from, Reader& r) {
  const SeqBound sb = decode_seq_bound(r);
  if (!authentic(from, sb.client,
                 seq_bound_signing_bytes(sb.client, sb.bound), sb.sig)) {
    return Next::kNone;
  }
  return record_bound(sb.client, sb.bound, encode_control_seq_bound(sb));
}

}  // namespace modubft::smr
