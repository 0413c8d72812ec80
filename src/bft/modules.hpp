// The detection/certification modules of the transformed process (Fig 1).
//
// An incoming message m traverses, in order:
//   signature module → muteness FD module → non-muteness FD module →
//   certification module → round-based protocol module,
// and an outgoing message m' traverses certification then signature on the
// way to the network.  Each class below encapsulates exactly one of those
// responsibilities; TransformedActor (transform.hpp) is the composition.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bft/analyzer.hpp"
#include "bft/config.hpp"
#include "bft/monitor.hpp"
#include "fd/muteness_fd.hpp"

namespace modubft::bft {

/// One detected-failure record (for the audit trail and experiment E4).
struct FaultRecord {
  ProcessId culprit;
  FaultKind kind = FaultKind::kNone;
  std::string detail;
  SimTime time = 0;
};

/// Signature module: verifies incoming envelopes and signs outgoing ones.
/// "If the signature of the message is inconsistent with the identity field
/// contained in the message, the message is discarded and its sender ...
/// is passed to the non-muteness failure detection module."
///
/// The module owns its instance's MessageMemo: a frame decodes through it,
/// the frames the pipeline keeps are interned, and so is every frame the
/// module signs.  Each distinct message is thus decoded and hashed once per
/// instance, and through a crypto::CachingVerifier its signature is checked
/// once per verifier; the process's own signatures are entered into the
/// cache as they are made, so they are never verified at all.
class SignatureModule {
 public:
  SignatureModule(const crypto::Signer* signer,
                  std::shared_ptr<const crypto::Verifier> verifier);

  /// Decodes and authenticates a raw frame from channel-peer `channel_from`.
  /// On success returns the message; on failure returns a Verdict naming the
  /// culprit (the channel sender — channels authenticate the transport
  /// identity, the signature authenticates the claimed identity).
  struct Inbound {
    bool ok = false;
    MemberPtr msg;    // meaningful when ok
    Verdict verdict;  // meaningful when !ok
    /// The messages of an accepted frame that decoded afresh, for
    /// remember(); empty when !ok.
    std::vector<MessageMemo::Entry> fresh;
  };

  /// Every check runs on every frame, interned or not.  Interns nothing.
  Inbound authenticate(ProcessId channel_from, const Bytes& frame);

  /// Interns an accepted frame's messages (Inbound::fresh).  The pipeline
  /// calls it only for the frames it keeps (delivers or buffers): nothing
  /// rejected, nothing from a sender in faulty_i and nothing the
  /// future-round buffer drops grows the memo, so a flooder cannot.
  void remember(std::vector<MessageMemo::Entry> fresh);

  /// Signs core+cert, interns the result under its encoding, enters the
  /// signature into the verified-signature cache (when the verifier is
  /// one), and returns the wire frame.
  Bytes sign(MessageCore core, Certificate cert);

  const MessageMemo& memo() const { return memo_; }

 private:
  const crypto::Signer* signer_;
  std::shared_ptr<const crypto::Verifier> verifier_;
  const crypto::CachingVerifier* cache_;  // verifier_ when it is a cache
  MessageMemo memo_;
};

/// Muteness module: owns the ◇M detector and the suspected set.
class MutenessModule {
 public:
  MutenessModule(std::uint32_t n, ProcessId self, fd::MutenessConfig config);

  void on_protocol_message(ProcessId from, SimTime now);
  void on_new_round(SimTime now);
  bool suspects(ProcessId q, SimTime now);

  fd::MutenessDetector& detector() { return detector_; }

 private:
  fd::MutenessDetector detector_;
};

/// Non-muteness module: one behaviour model per peer (the protocol's
/// Figure 4-style state machine, built by `factory`) plus the reliable
/// `faulty_i` set and its audit records.
class NonMutenessModule {
 public:
  NonMutenessModule(std::uint32_t n, const CertAnalyzer& analyzer,
                    const PeerModelFactory& factory);

  /// Runs the peer's model on `msg`.  A failed verdict adds the peer to
  /// faulty_i and appends an audit record.
  Verdict observe(ProcessId from, const SignedMessage& msg, SimTime now);

  /// Adds `culprit` to faulty_i with explicit evidence gathered outside the
  /// monitors (e.g. signature failures, equivocation proofs).
  void declare_faulty(ProcessId culprit, FaultKind kind, std::string detail,
                      SimTime now);

  bool is_faulty(ProcessId q) const { return faulty_.count(q) > 0; }
  const std::set<ProcessId>& faulty_set() const { return faulty_; }
  const std::vector<FaultRecord>& records() const { return records_; }

 private:
  std::vector<std::unique_ptr<PeerModel>> models_;
  std::set<ProcessId> faulty_;
  std::vector<FaultRecord> records_;
};

/// Reliable certification module: stores the certificate variables
/// (est_cert, next_cert, current_cert) and builds outgoing certificates,
/// applying the nested-NEXT pruning policy.
///
/// Assembly is copy-free: certificate members are shared immutable
/// messages (MemberPtr), so adopting a certificate, building an outgoing
/// one and wrapping a relay all share structure instead of deep-copying.
/// Pruned variants produced by the policy are interned per member, so the
/// same vote pruned into many outgoing certificates is materialized once.
class CertificationModule {
 public:
  explicit CertificationModule(const BftConfig& config);

  // --- certificate variables (paper Fig 3 boxed assignments) ---
  void add_init(MemberPtr m);                   // line 8
  void adopt_est(const Certificate& cert);      // line 17
  void add_current(MemberPtr m);                // line 16
  void add_next(MemberPtr m);                   // line 27
  void reset_round();                           // line 13

  /// A well-formed CURRENT whose vector conflicts with the adopted one
  /// (equivocation evidence).  It is a received vote — it counts toward
  /// REC_FROM and travels in NEXT justifications — but it must not count
  /// toward the decision quorum.
  void add_conflicting_current(MemberPtr m);
  const Certificate& conflict_cert() const { return conflict_cert_; }

  const Certificate& est_cert() const { return est_cert_; }
  const Certificate& next_cert() const { return next_cert_; }
  const Certificate& current_cert() const { return current_cert_; }

  std::size_t init_count() const;
  std::size_t current_count() const { return current_cert_.size(); }
  std::size_t next_count() const { return next_cert_.size(); }

  /// Distinct round-r vote senders across current_cert ∪ next_cert — the
  /// REC_FROM_i replacement of §5.1.
  std::set<ProcessId> rec_from() const;

  /// Concatenates certificates into an outgoing one, pruning nested NEXT
  /// certificates per the configured policy.  Members are shared, not
  /// copied; pruned variants come from the interning pool.
  Certificate build(std::initializer_list<const Certificate*> parts) const;

  /// Wraps a single adopted message as a relay certificate (line 19).
  Certificate relay_of(const MemberPtr& adopted) const;

 private:
  MemberPtr policy_member(const MemberPtr& m) const;

  const BftConfig& config_;
  Certificate est_cert_;
  Certificate next_cert_;
  Certificate current_cert_;
  Certificate conflict_cert_;
  /// Interned pruned variants, keyed by the original member (the key keeps
  /// the original alive, so pointer identity cannot be recycled).  Cleared
  /// at round reset together with the votes it prunes.
  mutable std::map<MemberPtr, MemberPtr> pruned_pool_;
};

}  // namespace modubft::bft
