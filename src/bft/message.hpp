// Certified, signed protocol messages (paper §3 and §5.1).
//
// Every message of the transformed protocol is a SignedMessage:
//
//   core  — kind, sender, round, and value payload (an INIT's proposed
//           value, or a CURRENT/DECIDE's estimate *vector*);
//   cert  — a Certificate: a set of signed messages witnessing the core's
//           values and the correctness of the decision to send it;
//   sig   — the sender's signature.
//
// Certificates nest (a CURRENT's certificate contains NEXT messages whose
// certificates contain earlier NEXTs, ...).  Two engineering decisions make
// this sound and tractable:
//
//  1. Digest-chained signatures.  The signature covers
//     encode(core) ‖ cert_digest(cert), where cert_digest reduces a
//     certificate to a SHA-256 over its members' (core, cert_digest, sig)
//     triples.  The digest of a certificate is therefore independent of
//     whether nested certificates are carried inline or pruned to their
//     digest, so deep certificate bodies can be dropped from the wire
//     without breaking any signature, while collision resistance pins
//     their contents.  This implements the paper's "certificates cannot be
//     corrupted" assumption.
//
//  2. Pruning policy.  The §5.1 well-formedness checks never look inside
//     the certificate of a NEXT that appears *within* another certificate
//     (only its core — sender and round — matters).  The certification
//     module may therefore replace those nested NEXT certificates with
//     digests, turning exponential growth into linear (experiment E6
//     measures both modes).
//
// Decoding is fully defensive: Byzantine senders control these bytes, so
// depth and cardinality are capped and every failure throws SerialError,
// which the non-muteness module converts into a "faulty sender" verdict.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "consensus/value.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

namespace modubft::bft {

using consensus::Value;

/// The estimate vector (paper: est_vect, one entry per process; nullopt is
/// the paper's "null").
using VectorValue = std::vector<std::optional<Value>>;

enum class BftKind : std::uint8_t {
  kInit = 1,     // preliminary phase: proposed value
  kCurrent = 2,  // vote to decide on the carried estimate vector
  kNext = 3,     // vote to move to the next round
  kDecide = 4,   // decision announcement
};

const char* kind_name(BftKind k);

struct SignedMessage;

/// Shared-immutable handle to a certificate member.  Certificates built
/// from other certificates (build / relay_of / adopt_est) share member
/// storage instead of deep-copying, and a member reached through a
/// Certificate can never be mutated in place — which is what makes the
/// digest memoization below sound.
using MemberPtr = std::shared_ptr<const SignedMessage>;

/// A certificate: either an inline set of signed messages, or (pruned) just
/// the SHA-256 digest of that set's canonical form.
///
/// Members are held behind `shared_ptr<const SignedMessage>` and mutated
/// only through the narrow API below (`add`, `replace`, `mutate_member`),
/// every path of which drops the memoized digest.  That immutability lets
/// the certificate memoize its own canonical digest, so `cert_digest`,
/// `signing_bytes` and `prune` are O(1) for an already-hashed member set.
/// A member's signing digest is memoized on the member itself
/// (SignedMessage::signing_digest), so every certificate that shares the
/// member shares that digest too; a slot's MessageMemo makes every decoded
/// copy of one message the same member.
///
/// Caches are not synchronized: a certificate is owned by one actor at a
/// time, like all protocol state.  The wire format is untouched — caches
/// never travel, and encoding is byte-for-byte what it always was.
class Certificate {
 public:
  bool pruned = false;
  crypto::Digest digest{};  // meaningful iff pruned

  Certificate() = default;

  bool empty() const { return !pruned && members_.empty(); }
  static Certificate empty_cert() { return Certificate{}; }

  /// Builds an inline certificate from copies of the given messages.
  static Certificate of(std::initializer_list<SignedMessage> members);

  const std::vector<MemberPtr>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  const SignedMessage& member(std::size_t i) const { return *members_[i]; }
  const MemberPtr& member_ptr(std::size_t i) const { return members_[i]; }

  void reserve(std::size_t n) { members_.reserve(n); }

  /// Appends a member (copy-free for the MemberPtr overload).
  void add(SignedMessage m);
  void add(MemberPtr m);

  /// Replaces member `i` wholesale, invalidating the memoized digests.
  void replace(std::size_t i, SignedMessage m);

  /// Rebuilds member `i` as a mutated copy — the only way to "edit" a
  /// member (used by tamper tests and attacks).  Invalidates the memoized
  /// digest; the copy starts without the original's signing digest.
  template <typename Fn>
  void mutate_member(std::size_t i, Fn&& fn) {
    SignedMessage copy = member(i);
    fn(copy);
    replace(i, std::move(copy));
  }

  /// Drops the memoized digest of this certificate (not of nested ones).
  /// Exposed so benchmarks can measure the cold path.
  void invalidate_digests();

  /// True iff the canonical digest of an inline member set is memoized
  /// (always false for pruned certificates, whose digest is explicit).
  bool digest_cached() const { return digest_cache_.has_value(); }

  /// Memoized canonical digest of the inline member set.
  const crypto::Digest& inline_digest() const;

 private:
  std::vector<MemberPtr> members_;
  mutable std::optional<crypto::Digest> digest_cache_;
};

/// A lazily computed digest that a copy does not inherit: a copied message
/// may then be edited, and must not carry the original's digest.
class DigestMemo {
 public:
  DigestMemo() = default;
  DigestMemo(const DigestMemo&) noexcept {}
  DigestMemo& operator=(const DigestMemo&) noexcept {
    value_.reset();
    return *this;
  }

  /// The memoized digest, computed by `compute()` on first use.
  template <typename Compute>
  const crypto::Digest& get(Compute&& compute) const {
    if (!value_) value_ = compute();
    return *value_;
  }
  bool has_value() const { return value_.has_value(); }

 private:
  mutable std::optional<crypto::Digest> value_;
};

/// The signed part of a message, minus certificate and signature.
struct MessageCore {
  BftKind kind = BftKind::kInit;
  ProcessId sender;
  Round round;          // INIT uses round 0
  Value init_value = 0; // kInit only
  VectorValue est;      // kCurrent / kDecide only

  bool operator==(const MessageCore& other) const;
};

/// A complete wire message: core + certificate + signature over
/// encode_core(core) ‖ cert_digest(cert).
struct SignedMessage {
  MessageCore core;
  Certificate cert;
  crypto::Signature sig;

  /// SHA-256 of signing_bytes(core, cert): the exact preimage the signature
  /// covers, and the verified-signature cache key.  Memoized on first use,
  /// so call it on a message nobody edits any more — one reached through a
  /// MemberPtr.  A copy starts without the memo.
  const crypto::Digest& signing_digest() const;

  /// The memo behind signing_digest(); a signer that already hashed the
  /// preimage may fill it.
  DigestMemo signing_digest_memo{};
};

/// Canonical encoding of a core (the first half of the signing preimage).
Bytes encode_core(const MessageCore& core);

/// Canonical digest of a certificate.  Invariant under pruning of nested
/// certificates: a pruned certificate and the inline certificate it was
/// pruned from have equal digests.  O(1) for a certificate whose member set
/// has already been hashed (the digest is memoized inside Certificate).
crypto::Digest cert_digest(const Certificate& cert);

/// The exact byte string a signature covers.
Bytes signing_bytes(const MessageCore& core, const Certificate& cert);

/// Returns a pruned copy of `cert` (digest only).
Certificate prune(const Certificate& cert);

/// Full wire encoding of a SignedMessage.
Bytes encode_message(const SignedMessage& msg);

/// Limits applied while decoding adversarial input.
struct DecodeLimits {
  std::uint32_t max_depth = 32;          // certificate nesting
  std::uint32_t max_members = 4096;      // per certificate
  std::uint32_t max_vector = 4096;       // estimate-vector length
  std::uint32_t max_sig_bytes = 1024;
  /// Whole-frame ceiling, checked before any parsing: a hostile peer
  /// cannot make the decoder walk an arbitrarily large buffer.
  std::uint32_t max_frame_bytes = 1u << 22;
};

/// Decodes a SignedMessage; throws SerialError on any malformed input.
SignedMessage decode_message(const Bytes& buf, const DecodeLimits& limits = {});

/// Non-throwing decode for boundaries that face raw wire bytes (the
/// safety auditor's tap, the mutation fuzzer's oracle, tools).  Any
/// malformed input — truncation, out-of-range fields, inconsistent
/// lengths, exceeded caps — lands in `error` as a typed outcome instead
/// of an exception; nothing else escapes.
struct DecodeOutcome {
  bool ok = false;
  SignedMessage msg;      // meaningful iff ok
  std::string error;      // meaningful iff !ok
  explicit operator bool() const { return ok; }
};
DecodeOutcome try_decode_message(const Bytes& buf,
                                 const DecodeLimits& limits = {});

/// Decoded messages interned by their exact encoded bytes: one memo per
/// consensus instance, owned by the instance's signature module.  Equal
/// bytes decode to equal messages, so every copy of a message — arriving
/// directly, nested in any number of certificates, or a frame this process
/// sent — resolves to one immutable object, whose signing digest and
/// certificate digest are each computed at most once.  Interning changes
/// no verdict: a hit yields what decoding the same bytes would, and every
/// check after decoding still runs.  Not synchronized: it belongs to one
/// actor.
class MessageMemo {
 public:
  /// Lookups by outcome: one per frame, plus one per certificate member
  /// (at any depth) whose enclosing message missed.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// A message and the exact bytes it decoded from.
  struct Entry {
    std::string bytes;
    MemberPtr msg;
  };

  /// `fresh` lists what decoded afresh, innermost first and the frame
  /// itself last; it is empty iff the whole frame was interned already.
  struct Decoded {
    MemberPtr msg;
    std::vector<Entry> fresh;
  };

  /// Decodes `frame` under the default DecodeLimits through the memo: the
  /// frame, and each certificate member at any depth, resolves to the
  /// interned object when its exact bytes are interned and decodes afresh
  /// otherwise.  Interns nothing.  Throws SerialError, with
  /// decode_message's error, on exactly the frames decode_message rejects.
  Decoded decode(const Bytes& frame);

  /// Interns what `decode` decoded afresh (Decoded::fresh).  Call it only
  /// once the frame was accepted.
  void intern(std::vector<Entry> fresh);

  /// Interns `msg` under its encoding `frame` (a frame this process sent).
  void intern(const Bytes& frame, MemberPtr msg);

  /// The interned message encoded by exactly `bytes`, or nullptr.  Counts
  /// a hit or a miss.
  MemberPtr find(std::span<const std::uint8_t> bytes);

  std::size_t size() const { return map_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view bytes) const {
      return std::hash<std::string_view>{}(bytes);
    }
  };

  std::unordered_map<std::string, MemberPtr, Hash, std::equal_to<>> map_;
  Stats stats_;
};

/// Byte size of the encoded form (for the E6 size experiments).  Computed
/// arithmetically from the structure — no throwaway encode is materialized.
std::size_t encoded_size(const SignedMessage& msg);

}  // namespace modubft::bft
