// Attack taxonomy: named, composable adversarial campaigns (paper §2).
//
// An AttackSpec bundles everything one adversarial scenario needs:
// protocol-level Byzantine behaviours (faults/), wire-level mutation
// fuzzing (adversary/fuzzer.hpp), and the coalition of processes acting
// them out.  `attack_catalog(n, f)` enumerates the full taxonomy — every
// §2 failure class the repo can inject, the fuzzing profiles, and (for
// f ≥ 2) coalition attacks pairing behaviours across up to f processes —
// so the campaign runner (adversary/campaign.hpp) can sweep
// (attack × substrate × seed) grids mechanically.
//
// The taxonomy deliberately includes a fault-free control ("none"): an
// auditor that flags a clean run is itself broken, and the control keeps
// the campaign honest about that direction too.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "adversary/fuzzer.hpp"
#include "faults/fault_spec.hpp"

namespace modubft::adversary {

/// One named adversarial scenario.
struct AttackSpec {
  std::string name;
  /// Paper §2 failure class (muteness / value corruption / duplication /
  /// spurious statement / substitution / forged signature / corrupted
  /// certificate / equivocation / wire corruption / coalition / control).
  std::string paper_class;
  std::string description;

  /// Protocol-level misbehaviours, one per compromised process.
  std::vector<faults::FaultSpec> faults;
  /// Process indices whose outgoing frames pass through a WireMutator.
  std::set<std::uint32_t> fuzzed;
  /// Mutation profile applied to the `fuzzed` processes' frames.
  MutationSpec mutation;

  /// Smallest group / resilience the attack makes sense for.
  std::uint32_t min_n = 4;
  std::uint32_t min_f = 1;

  /// All compromised process indices (fault carriers ∪ fuzzed).
  std::set<std::uint32_t> attackers() const;
  /// True iff the attack fits a group of size n with resilience f.
  bool fits(std::uint32_t n, std::uint32_t f) const;
};

/// The full taxonomy instantiated for a group of size `n` with declared
/// resilience `f`.  Attacks that need more processes or a larger coalition
/// than (n, f) allows are omitted, so every returned spec `fits(n, f)`.
std::vector<AttackSpec> attack_catalog(std::uint32_t n, std::uint32_t f);

/// Finds an attack by name; nullptr when absent.
const AttackSpec* find_attack(const std::vector<AttackSpec>& catalog,
                              const std::string& name);

}  // namespace modubft::adversary
