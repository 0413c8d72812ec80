// Substrate-wide safety auditor: paper invariants checked from the wire.
//
// The auditor is an omniscient observer outside the protocol: it taps every
// delivery (runtime::Substrate::set_delivery_tap / BftScenarioConfig::
// delivery_tap), reconstructs the run's evidence — signed statements,
// decision certificates, equivocations — and, once the run ends, checks the
// paper's safety properties **independently of the processes' own
// bookkeeping**:
//
//   1. Agreement (§4/§5): no two correct processes decide different vectors.
//   2. Certified decisions (§5.1): every vector decided by a correct
//      process is justified by evidence observed on the wire — either a
//      well-formed DECIDE certificate (CertAnalyzer::decide_wf) or a
//      quorum of well-formed CURRENT frames carrying that vector (the
//      paper's decision rule itself, Fig 2 line 20).  The second form
//      matters because with stop-on-decide every process may decide via
//      its own CURRENT quorum and halt before any DECIDE is delivered;
//      the CURRENTs that justified those decisions were delivered to the
//      deciders pre-halt, so the tap saw them.
//   3. Detector reliability (§3): no correct process ends up in any correct
//      process's faulty_i set ("if p_i is correct and p_j ∈ faulty_i then
//      p_j misbehaved").
//   4. Non-equivocation of correct processes: a correct process never signs
//      two different statements for the same (kind, round) — if the wire
//      shows it did, either a signature was forged or the process is not
//      actually correct; both are audit failures.
//   5. Attacker equivocations are detected or harmless: an attacker that
//      signed conflicting statements either lands in the correct
//      processes' faulty sets or fails to break agreement.
//
// The auditor deliberately shares no state with the processes: it decodes
// raw frames with bft::try_decode_message and verifies signatures with its
// own Verifier replica, so a bug in the protocol's bookkeeping cannot hide
// a violation from it.  observe() is thread-safe (taps arrive from node
// threads on the threaded/TCP substrates).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bft/analyzer.hpp"
#include "bft/message.hpp"
#include "consensus/value.hpp"
#include "crypto/signature.hpp"
#include "sim/simulation.hpp"

namespace modubft::adversary {

enum class ViolationKind : std::uint8_t {
  /// Two correct processes decided different vectors.
  kDisagreement,
  /// A correct process's decided vector has no well-formed DECIDE
  /// certificate anywhere on the wire.
  kUncertifiedDecision,
  /// A correct process declared another correct process faulty.
  kFalseConviction,
  /// A correct process signed two conflicting statements.
  kCorrectEquivocation,
  /// An attacker equivocation went undetected AND agreement broke.
  kUndetectedHarmfulEquivocation,
  /// A restarted replica rejoined with a store that does not match the
  /// store a correct quorum agrees on (recovery safety, ISSUE 6).
  kRecoveredStoreMismatch,
  /// A client accepted a reply that does not match the committed log —
  /// wrong content, wrong slot, or a command the service never committed
  /// at all (client/service safety, ISSUE 9).
  kClientReplyMismatch,
};

const char* violation_name(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  std::string detail;
};

struct AuditStats {
  std::uint64_t frames = 0;        // deliveries observed
  std::uint64_t undecodable = 0;   // frames try_decode_message rejected
  std::uint64_t bad_signature = 0; // decoded frames whose envelope sig failed
  std::uint64_t decide_frames = 0; // signature-valid DECIDE frames
  std::uint64_t wf_currents = 0;   // well-formed CURRENT frames
  std::uint64_t equivocations = 0; // (sender, kind, round) keys w/ conflicts
};

struct AuditorConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  /// Independent verifier replica (same scheme + seed as the run).
  std::shared_ptr<const crypto::Verifier> verifier;
};

/// Ground truth the audit is evaluated against, supplied by the harness
/// after the run (the auditor learns nothing from the processes during it).
struct AuditEvidence {
  /// Indices of processes given no fault and no fuzzing.
  std::set<std::uint32_t> correct;
  /// Indices the attack compromised (fault carriers ∪ wire-fuzzed).
  std::set<std::uint32_t> attackers;
  /// Decisions reached by correct processes.
  std::map<std::uint32_t, consensus::VectorDecision> decisions;
  /// Union of the correct processes' faulty_i sets.
  std::set<std::uint32_t> declared_faulty;
};

struct AuditReport {
  bool ok = false;
  std::vector<Violation> violations;
  AuditStats stats;
};

class SafetyAuditor {
 public:
  explicit SafetyAuditor(AuditorConfig config);

  /// Delivery observer; plug into BftScenarioConfig::delivery_tap.
  /// Thread-safe; copies what it needs out of the non-owning payload.
  void observe(const sim::Delivery& delivery);

  /// Evaluates the invariants over everything observed.  Call after the
  /// run has fully stopped (no concurrent observe()).
  AuditReport finish(const AuditEvidence& evidence) const;

  const AuditStats& stats() const { return stats_; }

 private:
  /// Statement identity: one correct process signs at most one distinct
  /// core per (kind, round).
  struct StatementKey {
    std::uint32_t sender;
    bft::BftKind kind;
    std::uint64_t round;
    bool operator<(const StatementKey& other) const {
      if (sender != other.sender) return sender < other.sender;
      if (kind != other.kind) return kind < other.kind;
      return round < other.round;
    }
  };

  AuditorConfig config_;
  bft::CertAnalyzer analyzer_;

  mutable std::mutex mu_;
  AuditStats stats_;
  /// Distinct signature-verified cores seen per statement key (conflict
  /// evidence; capped to keep a flooding attacker from exhausting memory).
  std::map<StatementKey, std::vector<bft::MessageCore>> statements_;
  /// Signature-verified DECIDE frames, for certificate justification.
  std::vector<bft::SignedMessage> decides_;
  /// Senders of well-formed CURRENT frames per (round, vector): the
  /// quorum-path justification for a decided vector.
  std::map<std::pair<std::uint64_t, bft::VectorValue>, std::set<std::uint32_t>>
      wf_currents_;
};

/// Renders a violation as a one-line JSON object (kind and detail).
std::string to_json(const Violation& violation);

}  // namespace modubft::adversary
