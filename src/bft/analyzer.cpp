#include "bft/analyzer.hpp"

#include <set>
#include <sstream>

#include "common/check.hpp"

namespace modubft::bft {

namespace {
// Structural recursion depth cap.  decode_message already caps nesting, so
// this is defence in depth against hand-built structures in tests.
constexpr std::uint32_t kMaxDepth = 40;

std::string describe(const MessageCore& core) {
  std::ostringstream os;
  os << kind_name(core.kind) << '(' << core.sender << ',' << core.round << ')';
  return os.str();
}
}  // namespace

ProcessId bft_coordinator_of(Round r, std::uint32_t n) {
  MODUBFT_EXPECTS(r.value >= 1);
  return ProcessId{(r.value - 1) % n};
}

CertAnalyzer::CertAnalyzer(std::uint32_t n, std::uint32_t quorum,
                           std::shared_ptr<const crypto::Verifier> verifier)
    : n_(n),
      quorum_(quorum),
      verifier_(std::move(verifier)),
      cache_(std::dynamic_pointer_cast<const crypto::CachingVerifier>(
          verifier_)) {
  MODUBFT_EXPECTS(n_ >= 2);
  MODUBFT_EXPECTS(quorum_ >= 1 && quorum_ <= n_);
  MODUBFT_EXPECTS(verifier_ != nullptr);
}

bool CertAnalyzer::signature_ok(const SignedMessage& msg) const {
  return verifier_->verify(msg.core.sender, signing_bytes(msg.core, msg.cert),
                           msg.sig);
}

bool CertAnalyzer::member_signature_ok(const Certificate& parent,
                                       std::size_t i) const {
  const SignedMessage& m = parent.member(i);
  if (m.core.sender.value >= n_) return false;
  if (cache_) {
    return cache_->verify_digest(
        m.core.sender, parent.member_signing_digest(i), m.sig,
        [&m] { return signing_bytes(m.core, m.cert); });
  }
  return verifier_->verify(m.core.sender, signing_bytes(m.core, m.cert),
                           m.sig);
}

Verdict CertAnalyzer::init_wf(const SignedMessage& msg) const {
  if (msg.core.kind != BftKind::kInit)
    return Verdict::fail(FaultKind::kWrongExpected, "not an INIT");
  if (msg.core.round.value != 0)
    return Verdict::fail(FaultKind::kWrongExpected,
                         "INIT must carry round 0");
  if (!msg.core.est.empty())
    return Verdict::fail(FaultKind::kWrongExpected,
                         "INIT must not carry an estimate vector");
  // "Messages INIT have an empty certificate."
  if (!msg.cert.empty())
    return Verdict::fail(FaultKind::kBadCertificate,
                         "INIT certificate must be empty");
  return Verdict::ok();
}

Verdict CertAnalyzer::est_wf(const Certificate& cert,
                             const VectorValue& v) const {
  return est_wf_depth(cert, v, 0);
}

Verdict CertAnalyzer::est_wf_depth(const Certificate& cert,
                                   const VectorValue& v,
                                   std::uint32_t depth) const {
  if (depth > kMaxDepth)
    return Verdict::fail(FaultKind::kBadCertificate, "est chain too deep");
  if (cert.pruned)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "est evidence pruned where contents are required");
  if (v.size() != n_)
    return Verdict::fail(FaultKind::kWrongExpected,
                         "estimate vector has wrong arity");

  // Case A: a quorum of INITs witnessing exactly the non-null entries.
  std::set<ProcessId> witnesses;
  bool init_mismatch = false;
  for (std::size_t i = 0; i < cert.size(); ++i) {
    const SignedMessage& m = cert.member(i);
    if (m.core.kind != BftKind::kInit) continue;
    if (!member_signature_ok(cert, i)) {
      return Verdict::fail(FaultKind::kBadCertificate,
                           "INIT member with invalid signature");
    }
    if (!init_wf(m))
      return Verdict::fail(FaultKind::kBadCertificate,
                           "malformed INIT member");
    const ProcessId j = m.core.sender;
    if (!v[j.value].has_value() || *v[j.value] != m.core.init_value) {
      init_mismatch = true;
      continue;
    }
    witnesses.insert(j);
  }
  if (witnesses.size() >= quorum_) {
    if (init_mismatch)
      return Verdict::fail(FaultKind::kBadCertificate,
                           "INIT member conflicts with the vector");
    // Every non-null entry must be witnessed.
    for (std::uint32_t j = 0; j < n_; ++j) {
      if (v[j].has_value() && witnesses.count(ProcessId{j}) == 0) {
        return Verdict::fail(FaultKind::kBadCertificate,
                             "unwitnessed non-null vector entry");
      }
    }
    return Verdict::ok();
  }

  // Case B: an adoption chain — exactly one CURRENT carrying the same
  // vector, itself well-formed.
  const SignedMessage* chain = nullptr;
  std::size_t chain_i = 0;
  for (std::size_t i = 0; i < cert.size(); ++i) {
    const SignedMessage& m = cert.member(i);
    if (m.core.kind != BftKind::kCurrent) continue;
    if (chain != nullptr)
      return Verdict::fail(FaultKind::kBadCertificate,
                           "ambiguous est evidence (several CURRENTs)");
    chain = &m;
    chain_i = i;
  }
  if (chain == nullptr)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "insufficient est evidence");
  if (!member_signature_ok(cert, chain_i))
    return Verdict::fail(FaultKind::kBadCertificate,
                         "CURRENT member with invalid signature");
  if (chain->core.est != v)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "adopted CURRENT carries a different vector");
  return current_wf_depth(*chain, depth + 1);
}

Verdict CertAnalyzer::entry_wf(const Certificate& cert, Round r) const {
  return entry_wf_depth(cert, r, 0);
}

Verdict CertAnalyzer::entry_wf_depth(const Certificate& cert, Round r,
                                     std::uint32_t depth) const {
  if (depth > kMaxDepth)
    return Verdict::fail(FaultKind::kBadCertificate, "entry chain too deep");
  if (r.value <= 1) return Verdict::ok();  // round 1 needs no witness
  if (cert.pruned)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "round evidence pruned where contents are required");

  // Quorum of NEXTs for the previous round.
  std::set<ProcessId> next_senders;
  for (std::size_t i = 0; i < cert.size(); ++i) {
    const SignedMessage& m = cert.member(i);
    if (m.core.kind != BftKind::kNext) continue;
    if (m.core.round != r.prev()) continue;
    if (!member_signature_ok(cert, i)) {
      return Verdict::fail(FaultKind::kBadCertificate,
                           "NEXT member with invalid signature");
    }
    next_senders.insert(m.core.sender);
  }
  if (next_senders.size() >= quorum_) return Verdict::ok();

  // Relay form: a single nested CURRENT of the same round carries the
  // witness transitively.
  const SignedMessage* chain = nullptr;
  std::size_t chain_i = 0;
  for (std::size_t i = 0; i < cert.size(); ++i) {
    const SignedMessage& m = cert.member(i);
    if (m.core.kind != BftKind::kCurrent) continue;
    if (chain != nullptr)
      return Verdict::fail(FaultKind::kBadCertificate,
                           "ambiguous round evidence (several CURRENTs)");
    chain = &m;
    chain_i = i;
  }
  if (chain == nullptr || chain->core.round != r)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "insufficient round evidence");
  if (!member_signature_ok(cert, chain_i))
    return Verdict::fail(FaultKind::kBadCertificate,
                         "CURRENT member with invalid signature");
  return entry_wf_depth(chain->cert, r, depth + 1);
}

Verdict CertAnalyzer::current_wf(const SignedMessage& msg) const {
  return current_wf_depth(msg, 0);
}

Verdict CertAnalyzer::current_wf_depth(const SignedMessage& msg,
                                       std::uint32_t depth) const {
  if (depth > kMaxDepth)
    return Verdict::fail(FaultKind::kBadCertificate, "relay chain too deep");
  if (msg.core.kind != BftKind::kCurrent)
    return Verdict::fail(FaultKind::kWrongExpected, "not a CURRENT");
  if (msg.core.round.value < 1)
    return Verdict::fail(FaultKind::kWrongExpected, "CURRENT round 0");
  if (msg.core.est.size() != n_)
    return Verdict::fail(FaultKind::kWrongExpected,
                         "estimate vector has wrong arity");

  const ProcessId coord = bft_coordinator_of(msg.core.round, n_);
  if (msg.core.sender == coord) {
    // Coordinator form (Fig 3 line 12): est_cert ∪ next_cert.
    if (Verdict v = est_wf_depth(msg.cert, msg.core.est, depth + 1); !v)
      return v;
    return entry_wf_depth(msg.cert, msg.core.round, depth + 1);
  }

  // Relay form (Fig 3 line 19): exactly the first valid CURRENT received.
  if (msg.cert.pruned)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "relayed CURRENT with pruned certificate");
  if (msg.cert.size() != 1 ||
      msg.cert.member(0).core.kind != BftKind::kCurrent) {
    return Verdict::fail(
        FaultKind::kBadCertificate,
        "relayed CURRENT must carry exactly the adopted CURRENT");
  }
  const SignedMessage& adopted = msg.cert.member(0);
  if (!member_signature_ok(msg.cert, 0))
    return Verdict::fail(FaultKind::kBadCertificate,
                         "adopted CURRENT with invalid signature");
  if (adopted.core.round != msg.core.round)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "adopted CURRENT from a different round");
  if (adopted.core.est != msg.core.est)
    return Verdict::fail(FaultKind::kWrongExpected,
                         "relayed vector differs from the adopted one — "
                         "substituted message");
  return current_wf_depth(adopted, depth + 1);
}

Verdict CertAnalyzer::next_wf(const SignedMessage& msg,
                              PeerPhase sender_phase) const {
  if (msg.core.kind != BftKind::kNext)
    return Verdict::fail(FaultKind::kWrongExpected, "not a NEXT");
  if (msg.core.round.value < 1)
    return Verdict::fail(FaultKind::kWrongExpected, "NEXT round 0");
  if (!msg.core.est.empty())
    return Verdict::fail(FaultKind::kWrongExpected,
                         "NEXT must not carry an estimate vector");
  if (msg.cert.pruned)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "NEXT justification pruned");

  const Round r = msg.core.round;
  std::set<ProcessId> current_senders;
  std::set<ProcessId> next_senders;
  for (std::size_t i = 0; i < msg.cert.size(); ++i) {
    const SignedMessage& m = msg.cert.member(i);
    if (m.core.round != r) continue;  // older-round context is ignorable
    if (m.core.kind == BftKind::kCurrent) {
      if (!member_signature_ok(msg.cert, i))
        return Verdict::fail(FaultKind::kBadCertificate,
                             "CURRENT member with invalid signature");
      current_senders.insert(m.core.sender);
    } else if (m.core.kind == BftKind::kNext) {
      if (!member_signature_ok(msg.cert, i))
        return Verdict::fail(FaultKind::kBadCertificate,
                             "NEXT member with invalid signature");
      next_senders.insert(m.core.sender);
    }
  }
  std::set<ProcessId> rec_from = current_senders;
  rec_from.insert(next_senders.begin(), next_senders.end());

  const bool end_of_round = next_senders.size() >= quorum_;      // line 31
  const bool change_mind =                                        // line 29
      !current_senders.empty() && rec_from.size() >= quorum_;
  const bool suspicion = current_senders.empty();                 // line 24

  switch (sender_phase) {
    case PeerPhase::kQ0:
      // Before sending any vote this round the sender cannot have processed
      // a CURRENT (it would have relayed it, FIFO would show us that), so
      // only the suspicion and end-of-round justifications are compatible.
      if (suspicion || end_of_round) return Verdict::ok();
      return Verdict::fail(FaultKind::kBadCertificate,
                           "NEXT from q0 carrying CURRENT evidence — "
                           "misevaluated sending condition");
    case PeerPhase::kQ1:
      if (change_mind || end_of_round) return Verdict::ok();
      return Verdict::fail(FaultKind::kBadCertificate,
                           "NEXT from q1 without change-mind or end-of-round "
                           "justification");
    case PeerPhase::kQ2:
      return Verdict::fail(FaultKind::kOutOfOrder,
                           "duplicate NEXT in one round");
  }
  return Verdict::fail(FaultKind::kBadCertificate, "unreachable");
}

Verdict CertAnalyzer::decide_wf(const SignedMessage& msg) const {
  if (msg.core.kind != BftKind::kDecide)
    return Verdict::fail(FaultKind::kWrongExpected, "not a DECIDE");
  if (msg.core.est.size() != n_)
    return Verdict::fail(FaultKind::kWrongExpected,
                         "decided vector has wrong arity");
  if (msg.core.round.value < 1)
    return Verdict::fail(FaultKind::kWrongExpected, "DECIDE round 0");
  if (msg.cert.pruned)
    return Verdict::fail(FaultKind::kBadCertificate,
                         "DECIDE certificate pruned");

  std::set<ProcessId> senders;
  for (std::size_t i = 0; i < msg.cert.size(); ++i) {
    const SignedMessage& m = msg.cert.member(i);
    if (m.core.kind != BftKind::kCurrent) continue;
    if (m.core.round != msg.core.round) continue;
    if (m.core.est != msg.core.est) {
      return Verdict::fail(FaultKind::kBadCertificate,
                           "DECIDE certificate contains a CURRENT for a "
                           "different vector");
    }
    if (!member_signature_ok(msg.cert, i))
      return Verdict::fail(FaultKind::kBadCertificate,
                           "CURRENT member with invalid signature");
    if (Verdict v = current_wf_depth(m, 1); !v) {
      return Verdict::fail(FaultKind::kBadCertificate,
                           "ill-formed CURRENT inside DECIDE certificate: " +
                               v.detail + " (" + describe(m.core) + ")");
    }
    senders.insert(m.core.sender);
  }
  if (senders.size() < quorum_) {
    return Verdict::fail(FaultKind::kBadCertificate,
                         "DECIDE without a quorum of matching CURRENTs — "
                         "misevaluated decision condition");
  }
  return Verdict::ok();
}

const SignedMessage* CertAnalyzer::chain_base(
    const SignedMessage& current) const {
  const SignedMessage* m = &current;
  std::uint32_t depth = 0;
  while (depth++ <= kMaxDepth) {
    if (m->core.kind != BftKind::kCurrent) return nullptr;
    const ProcessId coord = bft_coordinator_of(m->core.round, n_);
    if (m->core.sender == coord) return m;
    if (m->cert.pruned || m->cert.size() != 1) return nullptr;
    m = &m->cert.member(0);
  }
  return nullptr;
}

}  // namespace modubft::bft
