#include "adversary/auditor.hpp"

#include <algorithm>
#include <sstream>

namespace modubft::adversary {

namespace {

/// A flooding attacker must not exhaust the auditor's memory: conflict
/// evidence needs two distinct cores, a few more help diagnostics.
constexpr std::size_t kMaxCoresPerKey = 8;
/// DECIDE frames kept for certificate justification.  A run produces one
/// certified DECIDE per decider (plus attacker noise); the cap is far
/// above that and exists only as a flood guard.
constexpr std::size_t kMaxDecides = 4096;

std::string render_vector(const bft::VectorValue& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ",";
    if (v[i]) {
      os << *v[i];
    } else {
      os << "null";
    }
  }
  os << "]";
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

const char* violation_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kDisagreement: return "disagreement";
    case ViolationKind::kUncertifiedDecision: return "uncertified-decision";
    case ViolationKind::kFalseConviction: return "false-conviction";
    case ViolationKind::kCorrectEquivocation: return "correct-equivocation";
    case ViolationKind::kUndetectedHarmfulEquivocation:
      return "undetected-harmful-equivocation";
    case ViolationKind::kRecoveredStoreMismatch:
      return "recovered-store-mismatch";
    case ViolationKind::kClientReplyMismatch:
      return "client-reply-mismatch";
  }
  return "?";
}

SafetyAuditor::SafetyAuditor(AuditorConfig config)
    : config_(config),
      analyzer_(config.n, config.n - config.f, config.verifier) {}

void SafetyAuditor::observe(const sim::Delivery& delivery) {
  if (delivery.payload == nullptr) return;
  // Decode before taking the lock: the payload is only valid for this
  // call, but decoding touches no shared state and is the expensive part.
  bft::DecodeOutcome out = bft::try_decode_message(*delivery.payload);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames;
  if (!out) {
    ++stats_.undecodable;
    return;
  }
  // Only signature-verified frames count as evidence: an unverifiable
  // frame could have been fabricated by anyone (including the fuzzer) and
  // pins nothing on the process named in its sender field.
  if (out.msg.core.sender.value >= config_.n ||
      !analyzer_.signature_ok(out.msg)) {
    ++stats_.bad_signature;
    return;
  }

  const bft::MessageCore& core = out.msg.core;
  const StatementKey key{core.sender.value, core.kind, core.round.value};
  auto& cores = statements_[key];
  const bool seen = std::any_of(cores.begin(), cores.end(),
                                [&](const bft::MessageCore& c) {
                                  return c == core;
                                });
  if (!seen && cores.size() < kMaxCoresPerKey) {
    cores.push_back(core);
    if (cores.size() == 2) ++stats_.equivocations;
  }

  if (core.kind == bft::BftKind::kDecide) {
    ++stats_.decide_frames;
    if (decides_.size() < kMaxDecides) decides_.push_back(out.msg);
  } else if (core.kind == bft::BftKind::kCurrent &&
             analyzer_.current_wf(out.msg)) {
    ++stats_.wf_currents;
    if (wf_currents_.size() < kMaxDecides) {
      wf_currents_[{core.round.value, core.est}].insert(core.sender.value);
    }
  }
}

AuditReport SafetyAuditor::finish(const AuditEvidence& evidence) const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditReport report;
  report.stats = stats_;

  // 1. Agreement across correct deciders.
  const bft::VectorValue* first = nullptr;
  std::uint32_t first_id = 0;
  bool agreement = true;
  for (const auto& [id, decision] : evidence.decisions) {
    if (evidence.correct.count(id) == 0) continue;
    if (first == nullptr) {
      first = &decision.entries;
      first_id = id;
    } else if (*first != decision.entries) {
      agreement = false;
      report.violations.push_back(
          {ViolationKind::kDisagreement,
           "p" + std::to_string(id + 1) + " decided " +
               render_vector(decision.entries) + " but p" +
               std::to_string(first_id + 1) + " decided " +
               render_vector(*first)});
    }
  }

  // 2. Every decided vector is justified by wire evidence — a well-formed
  //    DECIDE certificate, or a quorum of well-formed CURRENTs carrying it
  //    in one round (the quorum decision path: with stop-on-decide no
  //    DECIDE may ever be delivered).  Checked per distinct vector: a
  //    decider's own DECIDE broadcast may legitimately reach nobody.
  std::vector<const bft::VectorValue*> checked;
  for (const auto& [id, decision] : evidence.decisions) {
    if (evidence.correct.count(id) == 0) continue;
    const bool done = std::any_of(checked.begin(), checked.end(),
                                  [&](const bft::VectorValue* v) {
                                    return *v == decision.entries;
                                  });
    if (done) continue;
    checked.push_back(&decision.entries);
    bool certified = false;
    for (const bft::SignedMessage& frame : decides_) {
      if (frame.core.est != decision.entries) continue;
      if (analyzer_.decide_wf(frame)) {
        certified = true;
        break;
      }
    }
    if (!certified) {
      for (const auto& [key, senders] : wf_currents_) {
        if (key.second == decision.entries &&
            senders.size() >= analyzer_.quorum()) {
          certified = true;
          break;
        }
      }
    }
    if (!certified) {
      report.violations.push_back(
          {ViolationKind::kUncertifiedDecision,
           "no well-formed DECIDE certificate on the wire for " +
               render_vector(decision.entries) + " decided by p" +
               std::to_string(id + 1)});
    }
  }

  // 3. Detector reliability: no correct process convicted.
  for (std::uint32_t id : evidence.declared_faulty) {
    if (evidence.correct.count(id)) {
      report.violations.push_back(
          {ViolationKind::kFalseConviction,
           "correct p" + std::to_string(id + 1) +
               " appears in a correct process's faulty set"});
    }
  }

  // 4/5. Equivocations: fatal from a correct process; from an attacker
  //      they must be detected or harmless.
  for (const auto& [key, cores] : statements_) {
    if (cores.size() < 2) continue;
    const std::string who = "p" + std::to_string(key.sender + 1);
    const std::string what = std::string(bft::kind_name(key.kind)) +
                             " r" + std::to_string(key.round);
    if (evidence.correct.count(key.sender)) {
      report.violations.push_back(
          {ViolationKind::kCorrectEquivocation,
           who + " (correct) signed " + std::to_string(cores.size()) +
               " conflicting " + what + " statements"});
    } else if (evidence.attackers.count(key.sender) &&
               evidence.declared_faulty.count(key.sender) == 0 &&
               !agreement) {
      report.violations.push_back(
          {ViolationKind::kUndetectedHarmfulEquivocation,
           who + " equivocated on " + what +
               ", was not detected, and agreement broke"});
    }
  }

  report.ok = report.violations.empty();
  return report;
}

std::string to_json(const Violation& violation) {
  return std::string("{\"kind\":\"") + violation_name(violation.kind) +
         "\",\"detail\":\"" + json_escape(violation.detail) + "\"}";
}

}  // namespace modubft::adversary
