// Campaign runner: sweep (attack × substrate × seed), audit every cell.
//
// A campaign covers two attack families by name: the consensus catalog
// (adversary/attack.hpp), whose cells run run_bft_scenario with a
// SafetyAuditor tapped into the wire, and the SMR attacks
// (adversary/client_campaign.hpp), whose cells run the replicated service
// under live clients with a replica killed and restarted.  Every requested
// (attack, substrate, seed) cell yields one CellOutcome — the named checks
// it was judged by and the violations its audits reported — and the report
// aggregates them.  A failing consensus cell is automatically *minimized*:
// the attack is greedily shrunk (drop coalition members, un-fuzz
// processes, zero mutation rates) while it keeps failing, so the report
// names the smallest adversary that still breaks the invariant instead of
// the kitchen-sink spec that happened to be running.
//
// The negative controls re-run deliberately broken configurations — the
// broken protocol double (broken_double.hpp) and the three planted SMR
// faults — and the campaign is only `ok` if every one of them was
// flagged: a campaign whose audits cannot see a blatant violation proves
// nothing about the cells that passed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/attack.hpp"
#include "adversary/auditor.hpp"
#include "runtime/substrate.hpp"

namespace modubft::adversary {

struct CampaignConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  /// Attack names of either family; empty = both full catalogs for (n, f).
  std::vector<std::string> attacks;
  std::vector<runtime::Backend> substrates{runtime::Backend::kSim};
  /// Seeds per (attack, substrate) cell: base_seed .. base_seed+seeds-1.
  std::uint32_t seeds = 1;
  std::uint64_t base_seed = 1;
  /// Per-cell wall-clock budget on the threaded/TCP substrates.
  std::chrono::milliseconds budget{20'000};
  /// Run the negative controls and require every one to be flagged.
  bool negative_control = true;
};

/// Outcome of one (attack, substrate, seed) cell of either family — the
/// report's one record type.
struct CellOutcome {
  std::string attack;
  runtime::Backend substrate = runtime::Backend::kSim;
  std::uint64_t seed = 0;
  /// The family's named invariants, in report order.
  std::vector<std::pair<std::string, bool>> checks;
  /// Everything the cell's audits reported.
  std::vector<Violation> violations;
  /// Consensus cells: the wire auditor's counters.
  std::optional<AuditStats> audit;
  /// Failing consensus cells: the smallest attack that still fails.
  std::string minimized;

  /// Every named check held (a cell with no checks never passes).
  bool pass() const { return !checks.empty() && failed_checks().empty(); }
  /// Names of the checks that failed, in report order.
  std::vector<std::string> failed_checks() const {
    std::vector<std::string> failed;
    for (const auto& [name, ok] : checks) {
      if (!ok) failed.push_back(name);
    }
    return failed;
  }
};

/// A negative control's verdict.
struct ControlOutcome {
  std::string name;
  bool flagged = false;
  /// Failed checks, then the distinct violation kinds the audits reported.
  std::vector<std::string> findings;
};

struct CampaignReport {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::vector<CellOutcome> cells;
  std::uint64_t cells_run = 0;
  std::uint64_t cells_failed = 0;
  /// Empty when the negative controls were not run.
  std::vector<ControlOutcome> controls;
  /// At least one cell ran, all cells passed, and every control (when
  /// run) was flagged.
  bool ok = false;
};

/// Runs one consensus cell: scenario + auditor, no minimization.
CellOutcome run_attack_cell(std::uint32_t n, std::uint32_t f,
                            const AttackSpec& attack,
                            runtime::Backend substrate, std::uint64_t seed,
                            std::chrono::milliseconds budget);

/// Runs the broken protocol double under the auditor; returns the audit
/// (which must NOT be ok — the caller checks).
AuditReport run_negative_control(std::uint32_t n, std::uint32_t f,
                                 std::uint64_t seed);

/// Greedily shrinks `failing` while `still_fails` holds: drops coalition
/// faults, un-fuzzes processes, zeroes mutation rates.  Exposed with an
/// injectable predicate so the minimizer itself is unit-testable without
/// running scenarios.
AttackSpec minimize_attack(const AttackSpec& failing,
                           const std::function<bool(const AttackSpec&)>&
                               still_fails);

/// One-line summary of an attack's adversarial content (for reports).
std::string describe_attack(const AttackSpec& attack);

/// Runs the requested cells of both families, then the negative controls.
/// Throws std::invalid_argument naming any attack neither family knows.
CampaignReport run_campaign(const CampaignConfig& config);

/// One-line JSON rendering of a cell record.
std::string to_json(const CellOutcome& cell);

/// Renders the report as pretty-printed JSON (multi-line).
std::string to_json(const CampaignConfig& config,
                    const CampaignReport& report);

}  // namespace modubft::adversary
