#include "bft/message.hpp"

#include "common/serial.hpp"

namespace modubft::bft {

const char* kind_name(BftKind k) {
  switch (k) {
    case BftKind::kInit: return "INIT";
    case BftKind::kCurrent: return "CURRENT";
    case BftKind::kNext: return "NEXT";
    case BftKind::kDecide: return "DECIDE";
  }
  return "?";
}

bool MessageCore::operator==(const MessageCore& other) const {
  return kind == other.kind && sender == other.sender &&
         round == other.round && init_value == other.init_value &&
         est == other.est;
}

Certificate Certificate::of(std::initializer_list<SignedMessage> members) {
  Certificate cert;
  cert.reserve(members.size());
  for (const SignedMessage& m : members) cert.add(m);
  return cert;
}

void Certificate::add(SignedMessage m) {
  add(std::make_shared<const SignedMessage>(std::move(m)));
}

void Certificate::add(MemberPtr m) {
  members_.push_back(std::move(m));
  invalidate_digests();
}

void Certificate::replace(std::size_t i, SignedMessage m) {
  members_.at(i) = std::make_shared<const SignedMessage>(std::move(m));
  invalidate_digests();
}

void Certificate::invalidate_digests() { digest_cache_.reset(); }

Bytes encode_core(const MessageCore& core) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(core.kind));
  w.u32(core.sender.value);
  w.u32(core.round.value);
  w.u64(core.init_value);
  w.u32(static_cast<std::uint32_t>(core.est.size()));
  for (const std::optional<Value>& entry : core.est) {
    w.boolean(entry.has_value());
    w.u64(entry.value_or(0));
  }
  return std::move(w).take();
}

const crypto::Digest& Certificate::inline_digest() const {
  if (!digest_cache_) {
    crypto::Sha256 h;
    for (const MemberPtr& m : members_) {
      Bytes core = encode_core(m->core);
      Writer frame;
      frame.bytes(core);
      frame.raw(crypto::digest_bytes(cert_digest(m->cert)));
      frame.bytes(m->sig);
      h.update(frame.data());
    }
    digest_cache_ = h.finish();
  }
  return *digest_cache_;
}

const crypto::Digest& SignedMessage::signing_digest() const {
  return signing_digest_memo.get(
      [this] { return crypto::sha256(signing_bytes(core, cert)); });
}

crypto::Digest cert_digest(const Certificate& cert) {
  if (cert.pruned) return cert.digest;
  return cert.inline_digest();
}

Bytes signing_bytes(const MessageCore& core, const Certificate& cert) {
  Bytes out = encode_core(core);
  crypto::Digest d = cert_digest(cert);
  out.insert(out.end(), d.begin(), d.end());
  return out;
}

Certificate prune(const Certificate& cert) {
  Certificate out;
  out.pruned = true;
  out.digest = cert_digest(cert);
  return out;
}

namespace {

void encode_message_into(Writer& w, const SignedMessage& msg);

void encode_cert_into(Writer& w, const Certificate& cert) {
  w.boolean(cert.pruned);
  if (cert.pruned) {
    w.raw(crypto::digest_bytes(cert.digest));
    return;
  }
  w.u32(static_cast<std::uint32_t>(cert.members().size()));
  for (const MemberPtr& m : cert.members()) encode_message_into(w, *m);
}

void encode_message_into(Writer& w, const SignedMessage& msg) {
  w.bytes(encode_core(msg.core));
  encode_cert_into(w, msg.cert);
  w.bytes(msg.sig);
}

MessageCore decode_core_from(Reader r, const DecodeLimits& limits) {
  MessageCore core;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 4) throw SerialError("unknown message kind");
  core.kind = static_cast<BftKind>(kind);
  core.sender = ProcessId{r.u32()};
  core.round = Round{r.u32()};
  core.init_value = r.u64();
  const std::uint32_t len = r.seq_len(limits.max_vector);
  core.est.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    const bool present = r.boolean();
    const Value v = r.u64();
    // Canonical form: an absent entry's value slot must be zero.  Fuzzing
    // found that accepting nonzero garbage there creates distinct byte
    // strings decoding to one message — covert variation that the
    // re-encode check upstream catches late; reject it at the source.
    if (!present && v != 0) throw SerialError("non-canonical null entry");
    core.est.push_back(present ? std::optional<Value>(v) : std::nullopt);
  }
  r.expect_end();
  return core;
}

// A decode through a MessageMemo: the memo it looks members up in, and the
// list of messages it decoded afresh.
struct Interning {
  MessageMemo& memo;
  std::vector<MessageMemo::Entry>& fresh;
};

SignedMessage decode_message_from(Reader& r, const DecodeLimits& limits,
                                  std::uint32_t depth, Interning* interning);

// Walks the message at r's cursor as decode_message_from would — length
// prefixes, the pruned flag, member counts and the depth cap — without
// building anything.
void skip_message(Reader& r, const DecodeLimits& limits, std::uint32_t depth) {
  (void)r.nested();  // core
  if (depth > limits.max_depth) throw SerialError("certificate too deep");
  if (r.boolean()) {
    r.skip(crypto::Digest{}.size());
  } else {
    const std::uint32_t count = r.seq_len(limits.max_members);
    for (std::uint32_t i = 0; i < count; ++i)
      skip_message(r, limits, depth + 1);
  }
  (void)r.nested();  // signature
}

// The bytes of the message at r's cursor, or an empty view where the walk
// fails; the full decode then raises decode's own error for them.
std::span<const std::uint8_t> message_bytes(Reader r,
                                            const DecodeLimits& limits,
                                            std::uint32_t depth) {
  const std::uint8_t* start = r.cursor();
  try {
    skip_message(r, limits, depth);
  } catch (const SerialError&) {
    return {};
  }
  return {start, r.cursor()};
}

MemberPtr decode_member(Reader& r, const DecodeLimits& limits,
                        std::uint32_t depth, Interning* interning) {
  if (interning == nullptr) {
    return std::make_shared<const SignedMessage>(
        decode_message_from(r, limits, depth, nullptr));
  }
  // An interned member's bytes decoded (and passed the canonical check)
  // before, and the walk applied this position's depth cap to them, so the
  // interned object is what decoding them here would give.
  const std::span<const std::uint8_t> bytes = message_bytes(r, limits, depth);
  if (!bytes.empty()) {
    if (MemberPtr hit = interning->memo.find(bytes)) {
      r.skip(bytes.size());
      return hit;
    }
  }
  const std::uint8_t* start = r.cursor();
  auto msg = std::make_shared<const SignedMessage>(
      decode_message_from(r, limits, depth, interning));
  interning->fresh.push_back({std::string(start, r.cursor()), msg});
  return msg;
}

Certificate decode_cert_from(Reader& r, const DecodeLimits& limits,
                             std::uint32_t depth, Interning* interning) {
  if (depth > limits.max_depth) throw SerialError("certificate too deep");
  Certificate cert;
  cert.pruned = r.boolean();
  if (cert.pruned) {
    for (std::size_t i = 0; i < cert.digest.size(); ++i) cert.digest[i] = r.u8();
    return cert;
  }
  const std::uint32_t count = r.seq_len(limits.max_members);
  cert.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cert.add(decode_member(r, limits, depth + 1, interning));
  }
  return cert;
}

SignedMessage decode_message_from(Reader& r, const DecodeLimits& limits,
                                  std::uint32_t depth, Interning* interning) {
  SignedMessage msg;
  // The core decodes from a sub-view aliasing the frame — no copy.
  msg.core = decode_core_from(r.nested(), limits);
  msg.cert = decode_cert_from(r, limits, depth, interning);
  msg.sig = r.bytes();
  if (msg.sig.size() > limits.max_sig_bytes)
    throw SerialError("oversized signature");
  return msg;
}

std::size_t encoded_core_size(const MessageCore& core) {
  // kind + sender + round + init_value + est length prefix + 9 bytes per
  // est entry (presence flag + value) — mirrors encode_core exactly.
  return 1 + 4 + 4 + 8 + 4 + 9 * core.est.size();
}

std::size_t encoded_cert_size(const Certificate& cert);

std::size_t encoded_message_size(const SignedMessage& msg) {
  return 4 + encoded_core_size(msg.core) + encoded_cert_size(msg.cert) + 4 +
         msg.sig.size();
}

std::size_t encoded_cert_size(const Certificate& cert) {
  if (cert.pruned) return 1 + cert.digest.size();
  std::size_t total = 1 + 4;
  for (const MemberPtr& m : cert.members()) total += encoded_message_size(*m);
  return total;
}

}  // namespace

Bytes encode_message(const SignedMessage& msg) {
  Writer w;
  encode_message_into(w, msg);
  return std::move(w).take();
}

SignedMessage decode_message(const Bytes& buf, const DecodeLimits& limits) {
  if (buf.size() > limits.max_frame_bytes)
    throw SerialError("frame exceeds size cap");
  Reader r(buf);
  SignedMessage msg = decode_message_from(r, limits, 0, nullptr);
  r.expect_end();
  return msg;
}

DecodeOutcome try_decode_message(const Bytes& buf, const DecodeLimits& limits) {
  DecodeOutcome out;
  try {
    out.msg = decode_message(buf, limits);
    out.ok = true;
  } catch (const SerialError& e) {
    out.error = e.what();
  }
  return out;
}

std::size_t encoded_size(const SignedMessage& msg) {
  return encoded_message_size(msg);
}

MessageMemo::Decoded MessageMemo::decode(const Bytes& frame) {
  const DecodeLimits limits;
  if (frame.size() > limits.max_frame_bytes)
    throw SerialError("frame exceeds size cap");
  Decoded out;
  if ((out.msg = find(frame))) return out;
  Reader r(frame);
  Interning interning{*this, out.fresh};
  out.msg = std::make_shared<const SignedMessage>(
      decode_message_from(r, limits, 0, &interning));
  r.expect_end();
  out.fresh.push_back({std::string(frame.begin(), frame.end()), out.msg});
  return out;
}

void MessageMemo::intern(std::vector<Entry> fresh) {
  for (Entry& e : fresh) map_.try_emplace(std::move(e.bytes), std::move(e.msg));
}

void MessageMemo::intern(const Bytes& frame, MemberPtr msg) {
  map_.try_emplace(std::string(frame.begin(), frame.end()), std::move(msg));
}

MemberPtr MessageMemo::find(std::span<const std::uint8_t> bytes) {
  const auto it = map_.find(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

}  // namespace modubft::bft
