// Checkpoint and state-transfer wire formats for the replicated log.
//
// The replica's envelope is `u64 slot ‖ inner frame`, and every replica
// (including pre-recovery builds) silently drops slots beyond its
// configured log — so the all-ones slot value is a free control channel:
// frames tagged kControlSlot never collide with consensus traffic and are
// invisible to replicas that do not speak recovery.  Enabling checkpoints
// therefore changes *no byte* of the existing consensus wire format; it
// only adds frames on the reserved tag.
//
//   control frame = u64 kControlSlot ‖ u8 kind ‖ body
//     kind 1  CHECKPOINT  — signed vote for (slot, state digest)
//     kind 2  STATE_REQ   — "send me your certified state from `slot`"
//     kind 3  STATE_RESP  — certificate + snapshot bytes + slot suffix
//
// The client/service layer (docs/CLIENT.md) rides the same reserved tag:
//     kind 4  REQUEST     — client → replica: seq ‖ op ‖ key ‖ value ‖ sig
//     kind 5  REPLY       — replica → client: committed command echo
//     kind 6  BUSY        — replica → client: admission queue full, back off
//     kind 7  CMD_RELAY   — replica ↔ replica: admitted command body + sig
//     kind 8  CMD_FETCH   — replica ↔ replica: "send me these bodies"
//     kind 10 SEQ_BOUND   — client → Π: "I will never send seq > bound"
// Kind 9 is unassigned: a frame of that kind is rejected like any unknown
// kind.
//
// REQUEST and CMD_RELAY carry the client's signature over the command
// preimage (client_request_signing_bytes): replicas in authenticated mode
// verify it before admitting a body, so a Byzantine replica can neither
// forge a body for a real client's seq nor feed divergent bodies to
// different peers — the body is bound to the decided id by the client's
// key, not by whoever relayed it.  SEQ_BOUND is the matching liveness
// tool: a signed, statically-true refutation ("my script has `bound`
// operations") that lets replicas skip a decided id whose body can never
// exist instead of fetching it forever.  A client whose whole script
// certified broadcasts one before it stops.
//
// Snapshots use the canonical Writer encoding (fixed-width, sorted map
// order), so every correct replica at the same commit frontier produces
// byte-identical snapshots and therefore identical SHA-256 digests — the
// property that lets 2f+1 independent votes certify a single digest.
//
// Every decoder here is fully defensive (`StateLimits` caps each
// sequence): STATE_RESP bodies come from untrusted peers and are also the
// target of the decode fuzzer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bft/checkpoint_cert.hpp"
#include "common/bytes.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "smr/command.hpp"

namespace modubft::smr {

/// Reserved envelope slot tag carrying recovery control frames.
inline constexpr std::uint64_t kControlSlot = ~std::uint64_t{0};

enum class ControlKind : std::uint8_t {
  kCheckpointVote = 1,
  kStateReq = 2,
  kStateResp = 3,
  kRequest = 4,
  kReply = 5,
  kBusy = 6,
  kCmdRelay = 7,
  kCmdFetch = 8,
  kSeqBound = 10,
};

/// Command identity for the client/service layer: the client's process id
/// in the high 32 bits, its per-client monotone sequence number (≥ 1) in
/// the low 32.  Client ids are ≥ n ≥ 2, so client command ids never
/// collide with harness workload ids (small integers) and are never 0.
constexpr std::uint64_t make_client_cmd_id(std::uint32_t client,
                                           std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) | seq;
}
constexpr std::uint32_t client_of_cmd(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr std::uint64_t seq_of_cmd(std::uint64_t id) {
  return id & 0xffffffffULL;
}

/// A replica's full service state at a slot boundary: everything needed to
/// resume committing from `slot` — the KV map, the set of already-committed
/// command ids that defines "pending" (its size is the applied count), and
/// the per-client reply cache (client id → seq → encoded REPLY control
/// frame), so a restarted replica can keep suppressing duplicates and
/// replaying cached replies for requests it committed before the crash.
/// Every section is always encoded, the client section empty in a run
/// without clients (layout: docs/RECOVERY.md).
struct Snapshot {
  std::uint64_t slot = 0;
  std::map<std::string, std::string> data;
  std::set<std::uint64_t> committed_ids;
  std::map<std::uint32_t, std::map<std::uint64_t, Bytes>> clients;
};

/// Decode caps for hostile input.  Defaults are far above anything the
/// test scenarios produce but small enough to bound a malicious
/// allocation.
struct StateLimits {
  std::uint32_t max_store_entries = 1u << 20;
  std::uint32_t max_committed_ids = 1u << 20;
  std::uint32_t max_cert_sigs = 256;
  std::uint32_t max_suffix_slots = 1u << 16;
  std::uint32_t max_batch = 1u << 12;
  std::uint32_t max_snapshot_bytes = 64u << 20;
  std::uint32_t max_clients = 1u << 12;
  /// Per client; also the largest ClientServiceConfig::seq_window.
  std::uint32_t max_cached_replies = 1u << 10;
};

Bytes encode_snapshot(const Snapshot& snap);
Snapshot decode_snapshot(const Bytes& buf, const StateLimits& limits);

/// Digest certified by checkpoint votes: SHA-256 of the canonical
/// snapshot encoding.
crypto::Digest snapshot_digest(const Bytes& encoded);

/// The canonical empty state at slot 0.  Its digest is recomputable by
/// anyone, which is what lets a replica serve (and a recoverer accept) a
/// certificate-free genesis response before the first checkpoint forms.
Bytes genesis_snapshot();

/// One replica's signed endorsement of (slot, digest).  The signer is the
/// envelope sender; the signature covers
/// bft::checkpoint_signing_bytes(slot, digest).
struct CheckpointVote {
  std::uint64_t slot = 0;
  crypto::Digest digest{};
  Bytes sig;
};

/// One committed slot of the replay suffix: the command ids the slot
/// committed, in commit order (empty = no-op slot).
struct SuffixEntry {
  std::uint64_t slot = 0;
  std::vector<std::uint64_t> ids;
};

/// STATE_RESP body: the responder's latest certified checkpoint plus the
/// committed-slot suffix from that checkpoint to its commit frontier.
struct StateResp {
  std::uint64_t ckpt_slot = 0;
  Bytes snapshot;  // encoded Snapshot; digest-bound to the certificate
  std::vector<std::pair<std::uint32_t, Bytes>> cert_sigs;
  std::vector<SuffixEntry> suffix;
};

// ----------------------------------------------------------------- client
// Request/reply frames for the client/service layer (docs/CLIENT.md).
// The client's identity is its authenticated channel (the envelope
// sender), never a frame field, so a client cannot impersonate another.

/// Client → contact replica.  The command id is derived, never carried:
/// make_client_cmd_id(sender, seq).  `sig` is the client's signature over
/// client_request_signing_bytes(sender, seq, op, key, value); empty in
/// unauthenticated (crash-model) runs, where forgery is out of the model.
struct ClientRequest {
  std::uint64_t seq = 0;  // per-client monotone, starts at 1
  Command::Op op = Command::Op::kPut;
  std::string key;
  std::string value;
  Bytes sig;
};

/// Replica → client, sent by EVERY replica that commits the command.
/// Each field is a deterministic function of the committed log, so the
/// replies of correct replicas are byte-identical — the property that
/// makes f+1 matching replies a proof of commitment.
struct ClientReply {
  std::uint64_t seq = 0;
  std::uint64_t cmd_id = 0;
  std::uint64_t slot = 0;  // slot that committed the command
  Command::Op op = Command::Op::kPut;
  std::string key;
  std::string value;
};

/// Replica → client: the admission queue is full; retry after backoff.
struct BusyFrame {
  std::uint64_t seq = 0;
  std::uint32_t queue_depth = 0;
};

/// Replica ↔ replica: the body of an admitted client command, broadcast
/// on admission so every replica can propose/commit it.  Carries the
/// owning client's request signature, so the receiver can authenticate
/// the body independently of the (possibly Byzantine) relaying replica.
struct CmdRelay {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  Command::Op op = Command::Op::kPut;
  std::string key;
  std::string value;
  Bytes sig;
};

/// Client → Π: a standing refutation — this client will never send any
/// seq > bound (statically true: bound = script length).  Lets replicas
/// deterministically skip fabricated decided ids beyond the bound instead
/// of parking the frontier on a body that can never exist.  Sent in answer
/// to a CMD_FETCH beyond the script, and broadcast once the whole script
/// certified.  Signed so replicas may also accept it relayed or served by
/// a peer.
struct SeqBound {
  std::uint32_t client = 0;
  std::uint64_t bound = 0;
  Bytes sig;
};

/// Domain-tagged signing preimages for the client frames.  The tags keep
/// the two signature kinds mutually unforgeable from each other.
Bytes client_request_signing_bytes(std::uint32_t client, std::uint64_t seq,
                                   Command::Op op, const std::string& key,
                                   const std::string& value);
Bytes seq_bound_signing_bytes(std::uint32_t client, std::uint64_t bound);

/// Complete control frames, ready for Context::send / broadcast.
Bytes encode_control_vote(const CheckpointVote& vote);
Bytes encode_control_state_req(std::uint64_t from_slot);
Bytes encode_control_state_resp(const StateResp& resp);
Bytes encode_control_request(const ClientRequest& req);
Bytes encode_control_reply(const ClientReply& reply);
Bytes encode_control_busy(const BusyFrame& busy);
Bytes encode_control_relay(const CmdRelay& relay);
Bytes encode_control_fetch(const std::vector<std::uint64_t>& ids);
Bytes encode_control_seq_bound(const SeqBound& bound);

/// Body decoders (input = the bytes after the kind octet).  All throw
/// SerialError on malformed input.
CheckpointVote decode_checkpoint_vote(Reader& r);
std::uint64_t decode_state_req(Reader& r);
StateResp decode_state_resp(Reader& r, const StateLimits& limits);
ClientRequest decode_client_request(Reader& r);
ClientReply decode_client_reply(Reader& r);
BusyFrame decode_busy(Reader& r);
CmdRelay decode_cmd_relay(Reader& r);
std::vector<std::uint64_t> decode_cmd_fetch(Reader& r,
                                            const StateLimits& limits);
SeqBound decode_seq_bound(Reader& r);

/// Non-throwing STATE_RESP decode for the fuzz harness and the recovery
/// path: malformed input yields nullopt, never UB and never an exception
/// escaping to the actor loop.
std::optional<StateResp> try_decode_state_resp(const Bytes& body,
                                               const StateLimits& limits);

}  // namespace modubft::smr
