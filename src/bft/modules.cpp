#include "bft/modules.hpp"

#include "common/check.hpp"
#include "common/serial.hpp"

namespace modubft::bft {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kBadSignature: return "bad-signature";
    case FaultKind::kMalformed: return "malformed";
    case FaultKind::kIdentityMismatch: return "identity-mismatch";
    case FaultKind::kOutOfOrder: return "out-of-order";
    case FaultKind::kWrongExpected: return "wrong-expected";
    case FaultKind::kBadCertificate: return "bad-certificate";
    case FaultKind::kEquivocation: return "equivocation";
  }
  return "?";
}

// ---------------------------------------------------------------- signature

SignatureModule::SignatureModule(
    const crypto::Signer* signer,
    std::shared_ptr<const crypto::Verifier> verifier)
    : signer_(signer),
      verifier_(std::move(verifier)),
      cache_(dynamic_cast<const crypto::CachingVerifier*>(verifier_.get())) {
  MODUBFT_EXPECTS(signer_ != nullptr);
  MODUBFT_EXPECTS(verifier_ != nullptr);
}

SignatureModule::Inbound SignatureModule::authenticate(ProcessId channel_from,
                                                       const Bytes& frame) {
  Inbound in;
  MessageMemo::Decoded decoded;
  try {
    decoded = memo_.decode(frame);
  } catch (const SerialError& e) {
    in.verdict = Verdict::fail(FaultKind::kMalformed,
                               std::string("undecodable frame: ") + e.what());
    return in;
  }
  const SignedMessage& msg = *decoded.msg;
  // Canonical-form check: exactly one byte string encodes each message.
  // Without it, semantically-ignored bytes (e.g. the value slot of a null
  // vector entry) could carry covert variation through the signature
  // check, since signatures cover the re-encoded canonical form.  A frame
  // interned whole (nothing decoded afresh) passed it when it was
  // interned, or was encoded here.
  if (!decoded.fresh.empty() && encode_message(msg) != frame) {
    in.verdict = Verdict::fail(FaultKind::kMalformed,
                               "non-canonical message encoding");
    return in;
  }
  // The identity field must match the channel the message arrived on:
  // channels are point-to-point, so the transport sender is known.
  if (msg.core.sender != channel_from) {
    in.verdict = Verdict::fail(FaultKind::kIdentityMismatch,
                               "identity field does not match the channel");
    return in;
  }
  if (!signature_valid(*verifier_, cache_, msg)) {
    in.verdict =
        Verdict::fail(FaultKind::kBadSignature, "signature verification failed");
    return in;
  }
  in.ok = true;
  in.msg = std::move(decoded.msg);
  in.fresh = std::move(decoded.fresh);
  return in;
}

void SignatureModule::remember(std::vector<MessageMemo::Entry> fresh) {
  memo_.intern(std::move(fresh));
}

Bytes SignatureModule::sign(MessageCore core, Certificate cert) {
  auto msg = std::make_shared<SignedMessage>();
  msg->core = std::move(core);
  msg->cert = std::move(cert);
  const Bytes preimage = signing_bytes(msg->core, msg->cert);
  msg->sig = signer_->sign(preimage);
  if (cache_) {
    // The copy of this broadcast that comes back to this process resolves
    // to `msg` by its bytes, and its check then hits this entry.  A copy
    // with any other bytes or signature still misses and is verified.
    cache_->record_signed(
        signer_->id(),
        msg->signing_digest_memo.get([&] { return crypto::sha256(preimage); }),
        msg->sig);
  }
  Bytes frame = encode_message(*msg);
  memo_.intern(frame, std::move(msg));
  return frame;
}

// ------------------------------------------------------------------ muteness

MutenessModule::MutenessModule(std::uint32_t n, ProcessId self,
                               fd::MutenessConfig config)
    : detector_(n, self, config) {}

void MutenessModule::on_protocol_message(ProcessId from, SimTime now) {
  detector_.on_protocol_message(from, now);
}

void MutenessModule::on_new_round(SimTime now) { detector_.on_new_round(now); }

bool MutenessModule::suspects(ProcessId q, SimTime now) {
  return detector_.suspects(q, now);
}

// -------------------------------------------------------------- non-muteness

NonMutenessModule::NonMutenessModule(std::uint32_t n,
                                     const CertAnalyzer& analyzer,
                                     const PeerModelFactory& factory) {
  MODUBFT_EXPECTS(factory != nullptr);
  models_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    models_.push_back(factory(ProcessId{i}, analyzer));
    MODUBFT_EXPECTS(models_.back() != nullptr);
  }
}

Verdict NonMutenessModule::observe(ProcessId from, const SignedMessage& msg,
                                   SimTime now) {
  MODUBFT_EXPECTS(from.value < models_.size());
  Verdict v = models_[from.value]->observe(msg);
  if (!v && v.kind != FaultKind::kNone) {
    declare_faulty(from, v.kind, v.detail, now);
  }
  return v;
}

void NonMutenessModule::declare_faulty(ProcessId culprit, FaultKind kind,
                                       std::string detail, SimTime now) {
  records_.push_back(FaultRecord{culprit, kind, detail, now});
  faulty_.insert(culprit);
}

// ------------------------------------------------------------- certification

CertificationModule::CertificationModule(const BftConfig& config)
    : config_(config) {}

void CertificationModule::add_init(MemberPtr m) {
  est_cert_.add(std::move(m));
}

void CertificationModule::adopt_est(const Certificate& cert) {
  est_cert_ = cert;  // shares members (and memoized digests) with the source
}

void CertificationModule::add_current(MemberPtr m) {
  current_cert_.add(std::move(m));
}

void CertificationModule::add_next(MemberPtr m) {
  next_cert_.add(std::move(m));
}

void CertificationModule::add_conflicting_current(MemberPtr m) {
  conflict_cert_.add(std::move(m));
}

void CertificationModule::reset_round() {
  next_cert_ = Certificate{};
  current_cert_ = Certificate{};
  conflict_cert_ = Certificate{};
  pruned_pool_.clear();
}

std::size_t CertificationModule::init_count() const {
  std::set<ProcessId> senders;
  for (const MemberPtr& m : est_cert_.members()) {
    if (m->core.kind == BftKind::kInit) senders.insert(m->core.sender);
  }
  return senders.size();
}

std::set<ProcessId> CertificationModule::rec_from() const {
  std::set<ProcessId> out;
  for (const MemberPtr& m : current_cert_.members()) out.insert(m->core.sender);
  for (const MemberPtr& m : next_cert_.members()) out.insert(m->core.sender);
  for (const MemberPtr& m : conflict_cert_.members()) out.insert(m->core.sender);
  return out;
}

MemberPtr CertificationModule::policy_member(const MemberPtr& m) const {
  // Pruning policy: the §5.1 checks only read the *cores* of NEXT messages
  // found inside certificates, so their own certificates can travel as
  // digests.  INITs have empty certificates and CURRENT bodies are needed
  // for adoption/relay chains, so both stay inline.
  if (!(config_.prune_nested_next && m->core.kind == BftKind::kNext &&
        !m->cert.empty() && !m->cert.pruned)) {
    return m;
  }
  auto [it, inserted] = pruned_pool_.try_emplace(m);
  if (inserted) {
    it->second = std::make_shared<const SignedMessage>(
        SignedMessage{m->core, prune(m->cert), m->sig});
  }
  return it->second;
}

Certificate CertificationModule::build(
    std::initializer_list<const Certificate*> parts) const {
  Certificate out;
  for (const Certificate* part : parts) {
    MODUBFT_EXPECTS(part != nullptr);
    MODUBFT_EXPECTS(!part->pruned);
    for (const MemberPtr& m : part->members()) {
      out.add(policy_member(m));
    }
  }
  return out;
}

Certificate CertificationModule::relay_of(const MemberPtr& adopted) const {
  Certificate out;
  out.add(adopted);  // the full adopted CURRENT, never pruned
  return out;
}

}  // namespace modubft::bft
