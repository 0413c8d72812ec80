#include "adversary/attack.hpp"

namespace modubft::adversary {

using faults::Behavior;
using faults::FaultSpec;

std::set<std::uint32_t> AttackSpec::attackers() const {
  std::set<std::uint32_t> out = fuzzed;
  for (const auto& spec : faults) out.insert(spec.who.value);
  return out;
}

bool AttackSpec::fits(std::uint32_t n, std::uint32_t f) const {
  if (n < min_n || f < min_f) return false;
  if (attackers().size() > f) return false;
  for (const auto& spec : faults) {
    if (spec.who.value >= n) return false;
    // Split-brain is hardwired to the round-1 coordinator.
    if (spec.behavior == Behavior::kSplitBrain && spec.who.value != 0)
      return false;
  }
  for (std::uint32_t id : fuzzed) {
    if (id >= n) return false;
  }
  return true;
}

namespace {

/// One process (index 1 — never the round-1 coordinator, so the honest
/// protocol still drives rounds) running a single Behavior.
AttackSpec behavior_attack(std::string name, std::string paper_class,
                           std::string description, Behavior behavior) {
  AttackSpec a;
  a.name = std::move(name);
  a.paper_class = std::move(paper_class);
  a.description = std::move(description);
  FaultSpec spec;
  spec.who = ProcessId{1};
  spec.behavior = behavior;
  a.faults.push_back(spec);
  return a;
}

AttackSpec fuzz_attack(std::string name, std::string description,
                       MutationSpec mutation) {
  AttackSpec a;
  a.name = std::move(name);
  a.paper_class = "wire corruption";
  a.description = std::move(description);
  a.fuzzed.insert(1);
  a.mutation = mutation;
  return a;
}

}  // namespace

std::vector<AttackSpec> attack_catalog(std::uint32_t n, std::uint32_t f) {
  std::vector<AttackSpec> all;

  // --- control -----------------------------------------------------------
  {
    AttackSpec a;
    a.name = "none";
    a.paper_class = "control";
    a.description = "fault-free run; the auditor must stay silent";
    all.push_back(std::move(a));
  }

  // --- muteness failures (§2) -------------------------------------------
  {
    AttackSpec a = behavior_attack(
        "crash", "muteness", "process halts silently early in the run",
        Behavior::kCrash);
    a.faults[0].at = 5'000;  // µs after start: mid-preliminary-phase
    all.push_back(std::move(a));
  }
  all.push_back(behavior_attack("mute", "muteness",
                                "alive but stops sending from round 1 on",
                                Behavior::kMute));
  all.push_back(behavior_attack(
      "selective-mute", "muteness",
      "drops messages to the lower half of the group, talks to the rest",
      Behavior::kSelectiveMute));

  // --- value corruption --------------------------------------------------
  all.push_back(behavior_attack("corrupt-vector", "value corruption",
                                "corrupts the estimate vector in CURRENTs",
                                Behavior::kCorruptVector));
  all.push_back(behavior_attack("wrong-round", "value corruption",
                                "relabels round-r messages as round r+1",
                                Behavior::kWrongRound));
  all.push_back(behavior_attack(
      "future-round", "value corruption",
      "relabels messages five rounds ahead, flooding future-round buffers",
      Behavior::kFutureRound));
  all.push_back(behavior_attack(
      "lie-init", "value corruption",
      "proposes an irrelevant initial value (undetectable by design)",
      Behavior::kLieInit));

  // --- duplication / replay ---------------------------------------------
  all.push_back(behavior_attack("duplicate-current", "duplication",
                                "sends every CURRENT twice",
                                Behavior::kDuplicateCurrent));
  all.push_back(behavior_attack("duplicate-next", "duplication",
                                "sends every NEXT twice",
                                Behavior::kDuplicateNext));
  all.push_back(behavior_attack(
      "stale-replay", "duplication",
      "replays its first signed frame verbatim alongside later sends",
      Behavior::kStaleReplay));

  // --- spurious / substituted statements ---------------------------------
  all.push_back(behavior_attack(
      "spurious-current", "spurious statement",
      "broadcasts CURRENT although not the coordinator",
      Behavior::kSpuriousCurrent));
  all.push_back(behavior_attack("substitute-next", "substitution",
                                "sends NEXT where the program says CURRENT",
                                Behavior::kSubstituteNext));
  all.push_back(behavior_attack("premature-decide", "substitution",
                                "broadcasts DECIDE without a deciding quorum",
                                Behavior::kPrematureDecide));

  // --- forged signatures --------------------------------------------------
  all.push_back(behavior_attack("bad-signature", "forged signature",
                                "flips a bit in outgoing signatures",
                                Behavior::kBadSignature));

  // --- corrupted certificates ---------------------------------------------
  all.push_back(behavior_attack("strip-certificate", "corrupted certificate",
                                "strips certificates from outgoing messages",
                                Behavior::kStripCertificate));
  all.push_back(behavior_attack(
      "truncate-cert", "corrupted certificate",
      "drops half the members from outgoing certificates",
      Behavior::kTruncateCert));
  all.push_back(behavior_attack(
      "replay-cert", "corrupted certificate",
      "attaches its first certificate to every later message",
      Behavior::kReplayCert));
  all.push_back(behavior_attack(
      "forge-cert", "corrupted certificate",
      "tampers a certificate member it cannot re-sign", Behavior::kForgeCert));

  // --- equivocation --------------------------------------------------------
  all.push_back(behavior_attack("equivocate", "equivocation",
                                "coordinator sends different vectors to "
                                "different halves of the group",
                                Behavior::kEquivocate));
  {
    AttackSpec a;
    a.name = "split-brain";
    a.paper_class = "equivocation";
    a.description =
        "round-1 coordinator certifies two different vectors, one per half";
    FaultSpec spec;
    spec.who = ProcessId{0};
    spec.behavior = Behavior::kSplitBrain;
    a.faults.push_back(spec);
    all.push_back(std::move(a));
  }

  // --- wire corruption (mutation fuzzing) ---------------------------------
  {
    MutationSpec m;
    m.bitflip_prob = 0.4;
    all.push_back(fuzz_attack("fuzz-bitflip",
                              "flips 1-4 bits in 40% of outgoing frames", m));
  }
  {
    MutationSpec m;
    m.truncate_prob = 0.4;
    all.push_back(
        fuzz_attack("fuzz-truncate", "truncates 40% of outgoing frames", m));
  }
  {
    MutationSpec m;
    m.splice_prob = 0.4;
    all.push_back(fuzz_attack(
        "fuzz-splice", "stomps a random window in 40% of outgoing frames", m));
  }
  {
    MutationSpec m;
    m.duplicate_prob = 0.3;
    m.reorder_prob = 0.3;
    all.push_back(fuzz_attack(
        "fuzz-reorder", "duplicates and reorders frames (FIFO violation)", m));
  }
  {
    MutationSpec m;
    m.bitflip_prob = 0.2;
    m.truncate_prob = 0.1;
    m.splice_prob = 0.2;
    m.duplicate_prob = 0.15;
    m.reorder_prob = 0.15;
    all.push_back(fuzz_attack("fuzz-storm",
                              "all mutation classes at once, moderate rates",
                              m));
  }

  // --- coalitions (f ≥ 2) --------------------------------------------------
  {
    AttackSpec a;
    a.name = "coalition-equivocate-mute";
    a.paper_class = "coalition";
    a.description =
        "split-brain coordinator while a second attacker goes mute";
    FaultSpec sb;
    sb.who = ProcessId{0};
    sb.behavior = Behavior::kSplitBrain;
    a.faults.push_back(sb);
    FaultSpec mute;
    mute.who = ProcessId{1};
    mute.behavior = Behavior::kMute;
    a.faults.push_back(mute);
    a.min_f = 2;
    a.min_n = 6;
    all.push_back(std::move(a));
  }
  {
    AttackSpec a;
    a.name = "coalition-forge-fuzz";
    a.paper_class = "coalition";
    a.description =
        "one certificate forger plus one wire-fuzzed process";
    FaultSpec forge;
    forge.who = ProcessId{1};
    forge.behavior = Behavior::kForgeCert;
    a.faults.push_back(forge);
    a.fuzzed.insert(2);
    a.mutation.bitflip_prob = 0.3;
    a.mutation.truncate_prob = 0.1;
    a.min_f = 2;
    a.min_n = 6;
    all.push_back(std::move(a));
  }
  {
    AttackSpec a;
    a.name = "coalition-replay-pair";
    a.paper_class = "coalition";
    a.description =
        "two attackers replaying stale frames and stale certificates";
    FaultSpec stale;
    stale.who = ProcessId{1};
    stale.behavior = Behavior::kStaleReplay;
    a.faults.push_back(stale);
    FaultSpec cert;
    cert.who = ProcessId{2};
    cert.behavior = Behavior::kReplayCert;
    a.faults.push_back(cert);
    a.min_f = 2;
    a.min_n = 6;
    all.push_back(std::move(a));
  }

  std::vector<AttackSpec> fitting;
  for (auto& a : all) {
    if (a.fits(n, f)) fitting.push_back(std::move(a));
  }
  return fitting;
}

const AttackSpec* find_attack(const std::vector<AttackSpec>& catalog,
                              const std::string& name) {
  for (const auto& a : catalog) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

}  // namespace modubft::adversary
