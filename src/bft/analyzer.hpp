// Certificate analyzer — the §5.1 well-formedness checks.
//
// "The correctness of a certificate can be verified at the recipient side,
// by a certificate analyzer."  This class implements every well-formedness
// predicate the paper defines, on top of the digest-chained signed-message
// representation:
//
//   est_wf(cert, v)        — cert witnesses the estimate vector v: either a
//                            quorum of INIT messages whose values are
//                            exactly v's non-null entries, or a single
//                            CURRENT message (an adoption chain) carrying v
//                            that is itself well-formed;
//   entry_wf(cert, r)      — cert witnesses legitimate entry into round r:
//                            a quorum of round-(r−1) NEXTs, or (relay case)
//                            one round-r CURRENT from r's coordinator that
//                            recursively witnesses it; round 1 needs no
//                            witness;
//   current_wf(msg)        — a CURRENT message is well-formed: coordinator
//                            form (est_wf + entry_wf) or relay form
//                            (exactly one nested CURRENT with equal round
//                            and vector, recursively well-formed);
//   decide_wf(msg)         — a quorum of well-formed round-r CURRENTs, all
//                            carrying the decided vector, from distinct
//                            senders;
//   next_wf(msg, state)    — one of the three justifications for sending
//                            NEXT holds and is compatible with the sender's
//                            monitored automaton state: suspicion (q0, no
//                            CURRENT evidence), change-mind (q1, ≥1 CURRENT
//                            and quorum REC_FROM), or end-of-round (quorum
//                            of same-round NEXTs);
//   init_wf(msg)           — INITs carry an empty certificate (they are the
//                            base of every chain).
//
// Nested member signatures are verified here (the analyzer *is* the
// "reliable certification" checker: falsifying any member is detected).
#pragma once

#include <memory>

#include "bft/message.hpp"
#include "bft/verdict.hpp"
#include "crypto/signature.hpp"
#include "crypto/verify_cache.hpp"

namespace modubft::bft {

/// The sender automaton sub-state the receiver tracks per peer, per round
/// (paper Figure 2/4: q0 = not voted, q1 = voted CURRENT, q2 = voted NEXT).
enum class PeerPhase : std::uint8_t { kQ0, kQ1, kQ2 };

class CertAnalyzer {
 public:
  CertAnalyzer(std::uint32_t n, std::uint32_t quorum,
               std::shared_ptr<const crypto::Verifier> verifier);

  /// Verifies the top-level signature of `msg` (core ‖ cert digest).
  bool signature_ok(const SignedMessage& msg) const;

  Verdict init_wf(const SignedMessage& msg) const;
  Verdict current_wf(const SignedMessage& msg) const;
  Verdict next_wf(const SignedMessage& msg, PeerPhase sender_phase) const;
  Verdict decide_wf(const SignedMessage& msg) const;

  /// Exposed for tests: the building-block predicates.
  Verdict est_wf(const Certificate& cert, const VectorValue& v) const;
  Verdict entry_wf(const Certificate& cert, Round r) const;

  /// Follows the adoption chain of a well-formed CURRENT down to the
  /// coordinator-signed message at its base (used for equivocation
  /// evidence).  Returns nullptr if the chain is not intact.
  const SignedMessage* chain_base(const SignedMessage& current) const;

  std::uint32_t quorum() const { return quorum_; }
  std::uint32_t n() const { return n_; }

  /// The verification path members are checked through; the pipeline's
  /// signature module checks top-level signatures the same way.
  const std::shared_ptr<const crypto::Verifier>& verifier() const {
    return verifier_;
  }
  /// verifier() when it is a verified-signature cache, else nullptr.
  const crypto::CachingVerifier* cache() const { return cache_.get(); }

 private:
  Verdict current_wf_depth(const SignedMessage& msg, std::uint32_t depth) const;
  Verdict est_wf_depth(const Certificate& cert, const VectorValue& v,
                       std::uint32_t depth) const;
  Verdict entry_wf_depth(const Certificate& cert, Round r,
                         std::uint32_t depth) const;
  /// Verifies the signature of a certificate member whose sender is in the
  /// group.  Through a CachingVerifier the lookup uses the member's
  /// memoized signing digest, so a previously-verified member costs one
  /// hash-map probe — no re-encoding, no hashing, no signature arithmetic.
  bool member_signature_ok(const SignedMessage& m) const;

  std::uint32_t n_;
  std::uint32_t quorum_;
  std::shared_ptr<const crypto::Verifier> verifier_;
  std::shared_ptr<const crypto::CachingVerifier> cache_;  // verifier_, typed
};

/// True iff msg.sig is msg.core.sender's signature over
/// signing_bytes(msg.core, msg.cert).  `cache` is `verifier` when that is a
/// verified-signature cache, else nullptr; through it the key is the
/// message's memoized signing digest, so a message checked before costs
/// one hash-map probe.
bool signature_valid(const crypto::Verifier& verifier,
                     const crypto::CachingVerifier* cache,
                     const SignedMessage& msg);

/// Rotating-coordinator rule shared with the crash protocol.
ProcessId bft_coordinator_of(Round r, std::uint32_t n);

}  // namespace modubft::bft
