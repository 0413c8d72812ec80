#include "smr/checkpoint.hpp"

#include <algorithm>

namespace modubft::smr {

namespace {

void write_frame_header(Writer& w, ControlKind kind) {
  w.u64(kControlSlot);
  w.u8(static_cast<std::uint8_t>(kind));
}

crypto::Digest read_digest(Reader& r) {
  const Bytes raw = r.bytes();
  if (raw.size() != crypto::Digest{}.size()) {
    throw SerialError("digest field has wrong length");
  }
  crypto::Digest d{};
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

Command::Op read_op(Reader& r) {
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 2) throw SerialError("unknown command op");
  return static_cast<Command::Op>(op);
}

}  // namespace

Bytes encode_snapshot(const Snapshot& snap) {
  Writer w;
  w.u64(snap.slot);
  w.u64(snap.applied);
  w.u32(static_cast<std::uint32_t>(snap.data.size()));
  for (const auto& [key, value] : snap.data) {
    w.str(key);
    w.str(value);
  }
  w.u32(static_cast<std::uint32_t>(snap.committed_ids.size()));
  for (std::uint64_t id : snap.committed_ids) w.u64(id);
  // Client-table section, appended only when non-empty: a pre-client
  // snapshot (or a run without clients) encodes byte-identically to the
  // PR 6 format, so old digests — and the wire-format pin tests — hold.
  if (!snap.clients.empty()) {
    w.u32(static_cast<std::uint32_t>(snap.clients.size()));
    for (const auto& [client, replies] : snap.clients) {
      w.u32(client);
      w.u32(static_cast<std::uint32_t>(replies.size()));
      for (const auto& [seq, frame] : replies) {
        w.u64(seq);
        w.bytes(frame);
      }
    }
  }
  return std::move(w).take();
}

Snapshot decode_snapshot(const Bytes& buf, const StateLimits& limits) {
  if (buf.size() > limits.max_snapshot_bytes) {
    throw SerialError("snapshot exceeds size cap");
  }
  Reader r(buf);
  Snapshot snap;
  snap.slot = r.u64();
  snap.applied = r.u64();
  const std::uint32_t entries = r.seq_len(limits.max_store_entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    std::string key = r.str();
    std::string value = r.str();
    // Canonical form: strictly ascending keys, no duplicates.
    if (!snap.data.empty() && key <= snap.data.rbegin()->first) {
      throw SerialError("snapshot store keys not strictly ascending");
    }
    snap.data.emplace_hint(snap.data.end(), std::move(key), std::move(value));
  }
  const std::uint32_t ids = r.seq_len(limits.max_committed_ids);
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < ids; ++i) {
    const std::uint64_t id = r.u64();
    if (id == 0 || (i > 0 && id <= prev)) {
      throw SerialError("snapshot committed ids not strictly ascending");
    }
    snap.committed_ids.insert(snap.committed_ids.end(), id);
    prev = id;
  }
  // Optional trailing client-table section (absent in pre-client
  // encodings; its presence is detected by remaining bytes, and the
  // canonical form bans an empty section — encode never emits one).
  if (!r.at_end()) {
    const std::uint32_t clients = r.seq_len(limits.max_clients);
    if (clients == 0) throw SerialError("empty snapshot client section");
    std::uint64_t prev_client = 0;
    for (std::uint32_t i = 0; i < clients; ++i) {
      const std::uint32_t client = r.u32();
      if (i > 0 && client <= prev_client) {
        throw SerialError("snapshot clients not strictly ascending");
      }
      prev_client = client;
      const std::uint32_t replies = r.seq_len(limits.max_cached_replies);
      auto& table = snap.clients[client];
      std::uint64_t prev_seq = 0;
      for (std::uint32_t j = 0; j < replies; ++j) {
        const std::uint64_t seq = r.u64();
        if (seq == 0 || (j > 0 && seq <= prev_seq)) {
          throw SerialError("snapshot reply seqs not strictly ascending");
        }
        prev_seq = seq;
        table.emplace_hint(table.end(), seq, r.bytes());
      }
    }
  }
  r.expect_end();
  return snap;
}

crypto::Digest snapshot_digest(const Bytes& encoded) {
  return crypto::sha256(encoded);
}

Bytes genesis_snapshot() { return encode_snapshot(Snapshot{}); }

Bytes encode_control_vote(const CheckpointVote& vote) {
  Writer w;
  write_frame_header(w, ControlKind::kCheckpointVote);
  w.u64(vote.slot);
  w.bytes(crypto::digest_bytes(vote.digest));
  w.bytes(vote.sig);
  return std::move(w).take();
}

Bytes encode_control_state_req(std::uint64_t from_slot) {
  Writer w;
  write_frame_header(w, ControlKind::kStateReq);
  w.u64(from_slot);
  return std::move(w).take();
}

Bytes encode_control_state_resp(const StateResp& resp) {
  Writer w;
  write_frame_header(w, ControlKind::kStateResp);
  w.u64(resp.ckpt_slot);
  w.bytes(resp.snapshot);
  bft::write_cert_sigs(w, resp.cert_sigs);
  w.u32(static_cast<std::uint32_t>(resp.suffix.size()));
  for (const SuffixEntry& entry : resp.suffix) {
    w.u64(entry.slot);
    w.u32(static_cast<std::uint32_t>(entry.ids.size()));
    for (std::uint64_t id : entry.ids) w.u64(id);
  }
  return std::move(w).take();
}

Bytes encode_control_request(const ClientRequest& req) {
  Writer w;
  write_frame_header(w, ControlKind::kRequest);
  w.u64(req.seq);
  w.u8(static_cast<std::uint8_t>(req.op));
  w.str(req.key);
  w.str(req.value);
  w.bytes(req.sig);
  return std::move(w).take();
}

Bytes encode_control_reply(const ClientReply& reply) {
  Writer w;
  write_frame_header(w, ControlKind::kReply);
  w.u64(reply.seq);
  w.u64(reply.cmd_id);
  w.u64(reply.slot);
  w.u8(static_cast<std::uint8_t>(reply.op));
  w.str(reply.key);
  w.str(reply.value);
  return std::move(w).take();
}

Bytes encode_control_busy(const BusyFrame& busy) {
  Writer w;
  write_frame_header(w, ControlKind::kBusy);
  w.u64(busy.seq);
  w.u32(busy.queue_depth);
  return std::move(w).take();
}

Bytes encode_control_relay(const CmdRelay& relay) {
  Writer w;
  write_frame_header(w, ControlKind::kCmdRelay);
  w.u32(relay.client);
  w.u64(relay.seq);
  w.u8(static_cast<std::uint8_t>(relay.op));
  w.str(relay.key);
  w.str(relay.value);
  w.bytes(relay.sig);
  return std::move(w).take();
}

Bytes encode_control_fetch(const std::vector<std::uint64_t>& ids) {
  Writer w;
  write_frame_header(w, ControlKind::kCmdFetch);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint64_t id : ids) w.u64(id);
  return std::move(w).take();
}

Bytes encode_control_seq_bound(const SeqBound& bound) {
  Writer w;
  write_frame_header(w, ControlKind::kSeqBound);
  w.u32(bound.client);
  w.u64(bound.bound);
  w.bytes(bound.sig);
  return std::move(w).take();
}

Bytes client_request_signing_bytes(std::uint32_t client, std::uint64_t seq,
                                   Command::Op op, const std::string& key,
                                   const std::string& value) {
  Writer w;
  w.str("smr-client-request");
  w.u32(client);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  w.str(value);
  return std::move(w).take();
}

Bytes seq_bound_signing_bytes(std::uint32_t client, std::uint64_t bound) {
  Writer w;
  w.str("smr-seq-bound");
  w.u32(client);
  w.u64(bound);
  return std::move(w).take();
}

CheckpointVote decode_checkpoint_vote(Reader& r) {
  CheckpointVote vote;
  vote.slot = r.u64();
  vote.digest = read_digest(r);
  vote.sig = r.bytes();
  r.expect_end();
  return vote;
}

std::uint64_t decode_state_req(Reader& r) {
  const std::uint64_t from_slot = r.u64();
  r.expect_end();
  return from_slot;
}

StateResp decode_state_resp(Reader& r, const StateLimits& limits) {
  StateResp resp;
  resp.ckpt_slot = r.u64();
  resp.snapshot = r.bytes();
  if (resp.snapshot.size() > limits.max_snapshot_bytes) {
    throw SerialError("snapshot exceeds size cap");
  }
  resp.cert_sigs = bft::read_cert_sigs(r, limits.max_cert_sigs);
  const std::uint32_t slots = r.seq_len(limits.max_suffix_slots);
  resp.suffix.reserve(slots);
  std::uint64_t prev_slot = 0;
  for (std::uint32_t i = 0; i < slots; ++i) {
    SuffixEntry entry;
    entry.slot = r.u64();
    if (entry.slot < resp.ckpt_slot || (i > 0 && entry.slot <= prev_slot)) {
      throw SerialError("suffix slots not strictly ascending from checkpoint");
    }
    prev_slot = entry.slot;
    const std::uint32_t ids = r.seq_len(limits.max_batch);
    entry.ids.reserve(ids);
    std::uint64_t prev_id = 0;
    for (std::uint32_t j = 0; j < ids; ++j) {
      const std::uint64_t id = r.u64();
      if (id == 0 || (j > 0 && id <= prev_id)) {
        throw SerialError("suffix command ids not strictly ascending");
      }
      entry.ids.push_back(id);
      prev_id = id;
    }
    resp.suffix.push_back(std::move(entry));
  }
  r.expect_end();
  return resp;
}

ClientRequest decode_client_request(Reader& r) {
  ClientRequest req;
  req.seq = r.u64();
  req.op = read_op(r);
  req.key = r.str();
  req.value = r.str();
  req.sig = r.bytes();
  r.expect_end();
  return req;
}

ClientReply decode_client_reply(Reader& r) {
  ClientReply reply;
  reply.seq = r.u64();
  reply.cmd_id = r.u64();
  reply.slot = r.u64();
  reply.op = read_op(r);
  reply.key = r.str();
  reply.value = r.str();
  r.expect_end();
  return reply;
}

BusyFrame decode_busy(Reader& r) {
  BusyFrame busy;
  busy.seq = r.u64();
  busy.queue_depth = r.u32();
  r.expect_end();
  return busy;
}

CmdRelay decode_cmd_relay(Reader& r) {
  CmdRelay relay;
  relay.client = r.u32();
  relay.seq = r.u64();
  relay.op = read_op(r);
  relay.key = r.str();
  relay.value = r.str();
  relay.sig = r.bytes();
  r.expect_end();
  return relay;
}

std::vector<std::uint64_t> decode_cmd_fetch(Reader& r,
                                            const StateLimits& limits) {
  const std::uint32_t count = r.seq_len(limits.max_batch);
  std::vector<std::uint64_t> ids;
  ids.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t id = r.u64();
    if (id == 0 || (i > 0 && id <= prev)) {
      throw SerialError("fetch ids not strictly ascending");
    }
    ids.push_back(id);
    prev = id;
  }
  r.expect_end();
  return ids;
}

SeqBound decode_seq_bound(Reader& r) {
  SeqBound bound;
  bound.client = r.u32();
  bound.bound = r.u64();
  bound.sig = r.bytes();
  r.expect_end();
  return bound;
}

std::optional<StateResp> try_decode_state_resp(const Bytes& body,
                                               const StateLimits& limits) {
  try {
    Reader r(body);
    return decode_state_resp(r, limits);
  } catch (const SerialError&) {
    return std::nullopt;
  }
}

}  // namespace modubft::smr
