// The SMR attack cell: the replicated service vs live adversaries.
//
// The service has two trust anchors — the checkpoint certificate
// (bft/checkpoint_cert.hpp) behind state transfer, and reply
// certification (f + 1 byte-identical replies from distinct replicas)
// behind the client path — plus one liveness anchor: capped retries with
// contact failover.  The attacks aim at exactly those:
//
//   forged-checkpoint   The attacker signs CHECKPOINT votes for a digest
//                       of its own invention (valid signature, fabricated
//                       claim) and answers STATE_REQs with a wholly
//                       fabricated snapshot "certified" by its own key.
//                       With ≤ f attackers the forged certificate never
//                       reaches 2f+1 distinct signers, so the recovering
//                       replica must reject it and recover from honest
//                       responders.
//   corrupt-state-resp  The attacker stomps a byte window in every
//                       STATE_RESP body it sends: truncated/spliced
//                       snapshots, flipped digest bytes, mangled suffix
//                       entries.  The digest + certificate check must
//                       reject every such frame without UB.
//   drop-replies        The attacker swallows every REPLY it owes a
//                       client.  The honest replicas alone form a
//                       certificate; a client whose contact is the
//                       attacker must fail over to make progress.
//   delay-replies       The attacker holds its REPLYs in a FIFO and
//                       releases one per subsequent event, reordering
//                       replies across operations and crossing them with
//                       client retries — the duplicate-suppression path.
//   forge-replies       The attacker corrupts the value and the claimed
//                       slot of every REPLY.  The client tallies the
//                       forgery; it must never reach a certificate.
//   forge-bodies        The attacker corrupts the VALUE of every CMD_RELAY
//                       it emits while keeping the client's signature.
//                       Honest replicas must reject the body and recover
//                       the genuine one through the fetch path.
//   phantom-ids         The attacker runs honest code but is preloaded
//                       with bodies for FABRICATED client ids: one just
//                       past a real client's script (refutable only by the
//                       client's signed SEQ_BOUND / CLIENT_DONE) and one
//                       far beyond the eligibility window.  Honest
//                       replicas must skip both instead of parking the
//                       commit frontier on them.  The clients run open
//                       loop, so the just-past phantom is eligible early.
//   burn-log            For every consensus frame it sends for slot s, the
//                       attacker also sends every other replica one junk
//                       envelope (the slot tag and 16 garbage bytes) for
//                       each slot s+1 .. s+W+8.  A client-mode replica
//                       starts a slot once any envelope for it is
//                       buffered, so the junk makes every correct replica
//                       run no-op slots as fast as consensus goes.  The
//                       log has no fixed length, so the burned slots cost
//                       time but never crowd out a client's operation.
//
// plus `smr-none`, the kill/restart under client load with no attack.
//
// Every cell has one shape: the Byzantine back-end (W = 4, B = 2,
// checkpoint every 4 slots) serving 2 clients × 8 operations, with p3
// killed and restarted mid-run and p2 the attacker.  burn-log runs without
// the kill: its junk convicts the attacker in every slot it lands in (an
// undecodable message is proof of a fault), so the attacker takes no part
// in consensus and is already the one fault n = 3f + 1 tolerates.  n, f, seed,
// substrate and budget come from the campaign; every TCP cell also kills
// links under the framing layer.  A cell passes iff the run is clean and
// every correct replica applied every command, the stores agree and every
// client finished, p3 recovered, and both audits come back empty:
// audit_recovered_stores
// (p3 ends with the correct quorum's store) and audit_client_replies
// (every accepted reply matches the committed log, exactly once).
//
// The negative controls plant one fault each that a correct build never
// has, and the check it targets must fail — a harness that cannot catch
// the planted fault proves nothing when it reports zero violations
// elsewhere.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adversary/campaign.hpp"
#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"

namespace modubft::adversary {

enum class SmrAttack : std::uint8_t {
  kNone = 0,
  kForgedCheckpoint,
  kCorruptStateResp,
  kDropReplies,
  kDelayReplies,
  kForgeReplies,
  kForgeBodies,
  kPhantomIds,
  kBurnLog,
};

/// One SMR catalog entry, listed next to the consensus catalog.
struct SmrAttackEntry {
  SmrAttack kind;
  const char* name;
  const char* paper_class;
  const char* description;
};

/// The SMR family in enum order, baseline first.
const std::vector<SmrAttackEntry>& smr_attack_catalog();

/// Finds an SMR attack by campaign name.
std::optional<SmrAttack> find_smr_attack(const std::string& name);

/// True iff the cell fits a group of size n with resilience f: its one
/// attacker needs f ≥ 1, and the Byzantine back-end n ≥ 3f + 1.
bool smr_cell_fits(std::uint32_t n, std::uint32_t f);

/// The digest a forging attacker votes for at `slot` — deterministic so a
/// coalition of forgers endorses one consistent lie (the strongest form of
/// the attack: inconsistent forgeries can never share a certificate).
crypto::Digest forged_checkpoint_digest(std::uint64_t slot);

/// A complete fabricated STATE_RESP control frame: a snapshot that exists
/// on no correct replica, claimed at `claim_slot`, "certified" by the
/// coalition's signatures.  Exposed for the unit tests, which feed it to
/// RecoveryModule directly and assert rejection.
Bytes forged_state_resp(std::uint64_t claim_slot,
                        const std::vector<const crypto::Signer*>& coalition);

/// One SMR cell or control: the campaign record plus the run it was
/// judged on (tests assert the attack's counters on it).
struct SmrCellOutcome {
  CellOutcome cell;
  faults::SmrScenarioResult result;
};

SmrCellOutcome run_smr_cell(std::uint32_t n, std::uint32_t f,
                            SmrAttack attack, runtime::Backend substrate,
                            std::uint64_t seed,
                            std::chrono::milliseconds budget);

/// Splices `attack` under every replica in `attackers` of a client-mode
/// Byzantine scenario (restarted lives included — wrap_actor re-applies on
/// restart) and lists them in assume_faulty.  The attackers sign with the
/// HMAC keys run_smr_scenario derives from (n, seed).  run_smr_cell uses
/// it on the cell shape; tests use it on their own shapes.
void arm_smr_attack(faults::SmrScenarioConfig& sc, SmrAttack attack,
                    const std::set<std::uint32_t>& attackers);

/// Store audit: each restarted replica must (a) have installed verified
/// state and (b) end with the store that at least `quorum` correct
/// replicas share.  `expected` overrides the quorum store (the
/// unverified-install control supplies an honest baseline, since in that
/// configuration no correct quorum exists to vote).  Returns
/// kRecoveredStoreMismatch violations; empty = invariant holds (always,
/// when nothing restarted).
std::vector<Violation> audit_recovered_stores(
    const faults::SmrScenarioResult& result,
    const std::set<std::uint32_t>& restarted, std::uint32_t quorum,
    const std::map<std::string, std::string>* expected = nullptr);

/// Reply audit: each accepted reply must name a command the commit-log
/// witness committed, at that slot, with that op/key/value, and the
/// witness must never have applied a command twice.  Returns
/// kClientReplyMismatch violations; empty = exactly-once linearization of
/// everything the clients believe happened.  A run with no witness
/// (result.commit_log_kept false) has no log to check: only each reply's
/// owning client is audited.
std::vector<Violation> audit_client_replies(
    const faults::SmrScenarioResult& result);

// ----------------------------------------------------------- controls

enum class SmrControl : std::uint8_t {
  /// Every peer of p3 runs forged-checkpoint and p3 installs the first
  /// STATE_RESP without verification; the store audit (against an honest
  /// baseline run) must flag the fabricated store.
  kUnverifiedInstall = 0,
  /// Every replica runs forge-replies and the clients trust the first
  /// reply without certification; the reply audit must flag the
  /// accepted forgeries.
  kTrustFirstReply,
  /// p2 runs forge-bodies with client authentication forced off; the
  /// corrupted body commits and its owner can never certify, so some
  /// client must fail to finish.
  kUnauthenticatedBodies,
};

inline constexpr SmrControl kSmrControls[] = {
    SmrControl::kUnverifiedInstall, SmrControl::kTrustFirstReply,
    SmrControl::kUnauthenticatedBodies};

const char* smr_control_name(SmrControl control);

/// Runs one planted fault on the simulator and judges it like a cell.
SmrCellOutcome run_smr_control(SmrControl control, std::uint32_t n,
                               std::uint32_t f, std::uint64_t seed);

/// True iff the check `control` plants its fault against failed.
bool control_flagged(SmrControl control, const CellOutcome& cell);

}  // namespace modubft::adversary
