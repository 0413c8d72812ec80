#include "adversary/campaign.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "adversary/broken_double.hpp"
#include "adversary/client_campaign.hpp"
#include "adversary/fuzzer.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"

namespace modubft::adversary {

namespace {

/// Mixes the cell seed with a process id for per-mutator streams.
std::uint64_t mutator_seed(std::uint64_t seed, std::uint32_t id) {
  return seed * 1000003ull + id;
}

faults::BftScenarioConfig cell_scenario_config(
    std::uint32_t n, std::uint32_t f, const AttackSpec& attack,
    runtime::Backend substrate, std::uint64_t seed,
    std::chrono::milliseconds budget) {
  faults::BftScenarioConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  cfg.substrate = substrate;
  cfg.budget = budget;
  cfg.faults = attack.faults;
  if (!attack.fuzzed.empty() && attack.mutation.any()) {
    const MutationSpec mutation = attack.mutation;
    const std::set<std::uint32_t> fuzzed = attack.fuzzed;
    cfg.wrap_actor = [mutation, fuzzed, seed](ProcessId id,
                                              std::unique_ptr<sim::Actor> a)
        -> std::unique_ptr<sim::Actor> {
      if (fuzzed.count(id.value) == 0) return a;
      return std::make_unique<WireMutator>(std::move(a), mutation,
                                           mutator_seed(seed, id.value));
    };
    cfg.assume_faulty = attack.fuzzed;
  }
  return cfg;
}

}  // namespace

CellOutcome run_attack_cell(std::uint32_t n, std::uint32_t f,
                            const AttackSpec& attack,
                            runtime::Backend substrate, std::uint64_t seed,
                            std::chrono::milliseconds budget) {
  // The auditor replicates the run's deterministic key material — same
  // scheme, same (n, seed) — so it verifies with the group's real keys
  // while sharing no state with the processes.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(n, seed);
  SafetyAuditor auditor(AuditorConfig{n, f, keys.verifier});

  faults::BftScenarioConfig cfg =
      cell_scenario_config(n, f, attack, substrate, seed, budget);
  cfg.delivery_tap = [&auditor](const sim::Delivery& d) { auditor.observe(d); };

  const faults::BftScenarioResult result = faults::run_bft_scenario(cfg);

  AuditEvidence evidence;
  evidence.correct = result.correct;
  evidence.attackers = attack.attackers();
  for (const auto& [i, d] : result.decisions) {
    if (result.correct.count(i)) evidence.decisions.emplace(i, d);
  }
  evidence.declared_faulty = result.declared_faulty;

  const AuditReport audit = auditor.finish(evidence);
  CellOutcome cell;
  cell.attack = attack.name;
  cell.substrate = substrate;
  cell.seed = seed;
  // An attack within the declared resilience must not block termination
  // either.
  cell.checks = {
      {"termination", result.termination},
      {"agreement", result.agreement},
      {"vector_validity", result.vector_validity},
      {"detectors_reliable", result.detectors_reliable},
      {"audit", audit.ok},
  };
  cell.violations = audit.violations;
  cell.audit = audit.stats;
  return cell;
}

AuditReport run_negative_control(std::uint32_t n, std::uint32_t f,
                                 std::uint64_t seed) {
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(n, seed);
  SafetyAuditor auditor(AuditorConfig{n, f, keys.verifier});

  std::mutex mu;
  std::map<std::uint32_t, consensus::VectorDecision> decisions;

  faults::BftScenarioConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  cfg.substrate = runtime::Backend::kSim;
  cfg.delivery_tap = [&auditor](const sim::Delivery& d) { auditor.observe(d); };
  // Replace every process with the broken double.  All ids go into
  // assume_faulty because the scenario's own evaluation reads BftProcess
  // internals of "correct" processes — which no longer exist.
  for (std::uint32_t i = 0; i < n; ++i) cfg.assume_faulty.insert(i);
  cfg.wrap_actor = [&](ProcessId id, std::unique_ptr<sim::Actor>)
      -> std::unique_ptr<sim::Actor> {
    return std::make_unique<BrokenConsensus>(
        n, 1000 + id.value, keys.signers[id.value].get(),
        [&mu, &decisions](ProcessId p, const consensus::VectorDecision& d) {
          std::lock_guard<std::mutex> lock(mu);
          decisions.emplace(p.value, d);
        });
  };
  (void)faults::run_bft_scenario(cfg);

  // The audit treats every process as correct: the double *is* the
  // protocol under test here, and its divergent uncertified decisions
  // must light up the report.
  AuditEvidence evidence;
  for (std::uint32_t i = 0; i < n; ++i) evidence.correct.insert(i);
  evidence.decisions = std::move(decisions);
  return auditor.finish(evidence);
}

AttackSpec minimize_attack(const AttackSpec& failing,
                           const std::function<bool(const AttackSpec&)>&
                               still_fails) {
  AttackSpec best = failing;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    // Drop coalition faults one at a time.
    for (std::size_t i = 0; i < best.faults.size(); ++i) {
      AttackSpec candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
    }
    if (shrunk) continue;
    // Un-fuzz processes one at a time.
    for (std::uint32_t id : best.fuzzed) {
      AttackSpec candidate = best;
      candidate.fuzzed.erase(id);
      if (candidate.fuzzed.empty()) candidate.mutation = MutationSpec{};
      if (still_fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
    }
    if (shrunk) continue;
    // Zero mutation rates one at a time.
    double MutationSpec::* rates[] = {
        &MutationSpec::bitflip_prob, &MutationSpec::truncate_prob,
        &MutationSpec::splice_prob, &MutationSpec::duplicate_prob,
        &MutationSpec::reorder_prob};
    for (auto rate : rates) {
      if (best.mutation.*rate == 0) continue;
      AttackSpec candidate = best;
      candidate.mutation.*rate = 0;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return best;
}

std::string describe_attack(const AttackSpec& attack) {
  std::ostringstream os;
  os << attack.name << ": faults=[";
  for (std::size_t i = 0; i < attack.faults.size(); ++i) {
    if (i) os << ",";
    os << faults::behavior_name(attack.faults[i].behavior) << "@p"
       << (attack.faults[i].who.value + 1);
  }
  os << "] fuzzed={";
  bool first = true;
  for (std::uint32_t id : attack.fuzzed) {
    if (!first) os << ",";
    first = false;
    os << "p" << (id + 1);
  }
  os << "}";
  if (attack.mutation.any()) os << " mutation(" << attack.mutation.describe()
                                << ")";
  return os.str();
}

namespace {

/// Failed checks, then each violation kind once.
std::vector<std::string> findings(const std::vector<std::string>& failed,
                                  const std::vector<Violation>& violations) {
  std::vector<std::string> out = failed;
  for (const Violation& v : violations) {
    const std::string kind = violation_name(v.kind);
    if (std::find(out.begin(), out.end(), kind) == out.end()) {
      out.push_back(kind);
    }
  }
  return out;
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  CampaignReport report;
  report.n = config.n;
  report.f = config.f;

  // Resolve every name before running anything: an unknown name is the
  // caller's mistake, never a silently smaller campaign.
  using Attack = std::variant<const AttackSpec*, SmrAttack>;
  const std::vector<AttackSpec> catalog =
      attack_catalog(config.n, config.f);
  const bool smr = smr_cell_fits(config.n, config.f);
  std::vector<Attack> selected;
  if (config.attacks.empty()) {
    for (const AttackSpec& a : catalog) selected.emplace_back(&a);
    if (smr) {
      for (const SmrAttackEntry& e : smr_attack_catalog()) {
        selected.emplace_back(e.kind);
      }
    }
  }
  for (const std::string& name : config.attacks) {
    const std::optional<SmrAttack> smr_attack = find_smr_attack(name);
    if (const AttackSpec* a = find_attack(catalog, name)) {
      selected.emplace_back(a);
    } else if (smr_attack && smr) {
      selected.emplace_back(*smr_attack);
    } else {
      throw std::invalid_argument("unknown attack '" + name + "' for n=" +
                                  std::to_string(config.n) +
                                  ", f=" + std::to_string(config.f));
    }
  }

  for (const Attack& attack : selected) {
    for (runtime::Backend substrate : config.substrates) {
      for (std::uint32_t s = 0; s < config.seeds; ++s) {
        const std::uint64_t seed = config.base_seed + s;
        CellOutcome cell;
        if (const auto* smr = std::get_if<SmrAttack>(&attack)) {
          cell = run_smr_cell(config.n, config.f, *smr, substrate, seed,
                              config.budget)
                     .cell;
        } else {
          const AttackSpec& spec = *std::get<const AttackSpec*>(attack);
          cell = run_attack_cell(config.n, config.f, spec, substrate, seed,
                                 config.budget);
          if (!cell.pass()) {
            cell.minimized = describe_attack(minimize_attack(
                spec, [&](const AttackSpec& candidate) {
                  return !run_attack_cell(config.n, config.f, candidate,
                                          substrate, seed, config.budget)
                              .pass();
                }));
          }
        }
        ++report.cells_run;
        if (!cell.pass()) ++report.cells_failed;
        report.cells.push_back(std::move(cell));
      }
    }
  }

  if (config.negative_control) {
    const AuditReport audit =
        run_negative_control(config.n, config.f, config.base_seed);
    report.controls.push_back(
        {"broken-consensus", !audit.ok, findings({}, audit.violations)});
    // The SMR controls vouch for the SMR audits, wherever those can run.
    for (SmrControl control : kSmrControls) {
      if (!smr) continue;
      const CellOutcome cell =
          run_smr_control(control, config.n, config.f, config.base_seed).cell;
      report.controls.push_back({smr_control_name(control),
                                 control_flagged(control, cell),
                                 findings(cell.failed_checks(),
                                          cell.violations)});
    }
  }

  report.ok = report.cells_run > 0 && report.cells_failed == 0 &&
              std::all_of(report.controls.begin(), report.controls.end(),
                          [](const ControlOutcome& c) { return c.flagged; });
  return report;
}

std::string to_json(const CellOutcome& cell) {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::ostringstream os;
  os << "{\"attack\":\"" << cell.attack << "\",\"substrate\":\""
     << runtime::backend_name(cell.substrate) << "\",\"seed\":" << cell.seed
     << ",\"pass\":" << flag(cell.pass()) << ",\"checks\":{";
  for (std::size_t i = 0; i < cell.checks.size(); ++i) {
    if (i) os << ",";
    os << "\"" << cell.checks[i].first << "\":" << flag(cell.checks[i].second);
  }
  os << "},\"violations\":[";
  for (std::size_t i = 0; i < cell.violations.size(); ++i) {
    if (i) os << ",";
    os << to_json(cell.violations[i]);
  }
  os << "]";
  if (cell.audit) {
    const AuditStats& a = *cell.audit;
    os << ",\"audit\":{\"frames\":" << a.frames
       << ",\"undecodable\":" << a.undecodable
       << ",\"bad_signature\":" << a.bad_signature
       << ",\"decide_frames\":" << a.decide_frames
       << ",\"wf_currents\":" << a.wf_currents
       << ",\"equivocations\":" << a.equivocations << "}";
  }
  if (!cell.minimized.empty()) {
    os << ",\"minimized\":\"" << cell.minimized << "\"";
  }
  os << "}";
  return os.str();
}

std::string to_json(const CampaignConfig& config,
                    const CampaignReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"campaign\": {\"n\": " << report.n << ", \"f\": " << report.f
     << ", \"seeds\": " << config.seeds
     << ", \"base_seed\": " << config.base_seed << ", \"substrates\": [";
  for (std::size_t i = 0; i < config.substrates.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << runtime::backend_name(config.substrates[i]) << "\"";
  }
  os << "]},\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    os << "    " << to_json(report.cells[i])
       << (i + 1 < report.cells.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"summary\": {\"cells_run\": " << report.cells_run
     << ", \"cells_failed\": " << report.cells_failed
     << ", \"negative_controls\": [";
  for (std::size_t i = 0; i < report.controls.size(); ++i) {
    const ControlOutcome& c = report.controls[i];
    os << (i ? ", " : "") << "{\"name\": \"" << c.name
       << "\", \"flagged\": " << (c.flagged ? "true" : "false")
       << ", \"findings\": [";
    for (std::size_t k = 0; k < c.findings.size(); ++k) {
      os << (k ? ", " : "") << "\"" << c.findings[k] << "\"";
    }
    os << "]}";
  }
  os << "], \"ok\": " << (report.ok ? "true" : "false") << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace modubft::adversary
