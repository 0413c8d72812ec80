// scenario_cli — run any consensus scenario from the command line.
//
// The adoptable front door: pick a protocol, group size, fault assignment,
// network model and seed; get the paper's correctness properties and cost
// metrics back, without writing C++.
//
// Usage:
//   scenario_cli bft   --n 7 --f 2 --seed 3 --fault 1:corrupt-vector
//                      --fault 4:mute [--substrate sim|threads|tcp]
//                      [--rsa] [--no-prune] [--turbulent] [--audit]
//                      [--budget-ms 20000]
//   scenario_cli crash --n 5 --seed 1 --protocol hr|ct --crash 1:0
//                      [--substrate sim|threads|tcp] [--mistakes 0.2]
//   scenario_cli lockstep --n 4 --f 1 --rounds 5 --seed 1 --crash 4:0
//                      [--substrate sim|threads|tcp] [--budget-ms 20000]
//   scenario_cli tcp   --n 4 --f 1 --seed 3 --kill 0.05 --flip 0.02
//                      [--fault 1:corrupt-vector] [--budget-ms 30000]
//   scenario_cli campaign --n 4 --f 1 --seeds 8 [--attacks a,b,...]
//                      [--substrates sim,threads,tcp] [--base-seed 1]
//                      [--out report.json] [--no-negative-control]
//                      [--list] [--budget-ms 20000]
//   scenario_cli smr   --n 4 --backend crash|byz [--f 1]
//                      [--window W] [--batch B] [--commands K]
//                      [--clients K --ops M [--in-flight F]]
//                      [--substrate sim|threads|tcp]
//                      [--seed S] [--crash P:TIME_US]...
//                      [--checkpoint-interval C]
//                      [--restart P:KILL_US:RESTART_US]... [--budget-ms MS]
//
// `lockstep` runs the certified lockstep barrier, the second round
// protocol inside the transformed pipeline (bft/lockstep.hpp): every
// correct process must cross all --rounds barriers with no conviction of
// a correct peer.
//
// `smr` runs the pipelined replicated KV machine (docs/SMR.md): --window
// sets the number of concurrent consensus instances per replica, --batch
// the commands committed per slot and --commands the synthetic workload
// size.  --clients K --ops M replaces the preloaded workload with K live
// clients of M scripted ops each (docs/CLIENT.md), one op in flight per
// client, or F with --in-flight.  No log has a fixed length: the run ends
// once every client finished and every correct replica applied every
// command, and `n / slots:` prints the slots the witness replica
// committed.  --checkpoint-interval turns on
// certified checkpoints + log compaction (docs/RECOVERY.md); --restart
// kills replica P at KILL_US and brings it back at RESTART_US as a fresh
// actor that recovers via state transfer (requires --checkpoint-interval).
// The `store digest:` line is the SHA-256 of the first correct replica's
// final store, so two builds' stores compare even where traffic differs.
//
// Faults take `<process>:<behavior>` with 1-based process ids; behaviours:
//   crash mute corrupt-vector wrong-round duplicate-current duplicate-next
//   bad-signature strip-certificate substitute-next premature-decide
//   equivocate lie-init spurious-current split-brain future-round
//   stale-replay replay-cert truncate-cert forge-cert selective-mute
//
// `campaign` sweeps both adversary/ attack families — the consensus
// catalog under the wire-level safety auditor, and the SMR attacks under
// live clients with a replica killed and restarted — over an
// (attack × substrate × seed) grid, minimizes failing consensus attacks,
// runs the negative controls, and writes a JSON report — see
// docs/ADVERSARY.md.
//
// --substrate selects the execution backend (runtime::Backend): the
// deterministic simulator (default), the threaded in-memory cluster, or
// the TCP loopback cluster — the scenario itself is unchanged.  The `tcp`
// mode is the TCP substrate plus link faults injected below the framing
// layer: --kill/--truncate/--flip/--delay set the per-frame probability of
// each fault on every directed link, absorbed by the resilient transport.
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>

#include "adversary/attack.hpp"
#include "adversary/campaign.hpp"
#include "adversary/client_campaign.hpp"
#include "bft/bft_consensus.hpp"
#include "bft/config.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/byzantine.hpp"
#include "faults/link_fault.hpp"
#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"
#include "sim/trace.hpp"
#include "transport/tcp_cluster.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace modubft;

[[noreturn]] void usage(const char* why) {
  std::cerr << "error: " << why << "\n\n"
            << "usage: scenario_cli bft   --n N --f F [--seed S] "
               "[--substrate sim|threads|tcp] [--fault P:BEHAVIOR]... "
               "[--rsa] [--no-prune] [--turbulent] "
               "[--audit] [--trace FILE] [--budget-ms MS]\n"
            << "       scenario_cli crash --n N [--seed S] [--protocol hr|ct] "
               "[--substrate sim|threads|tcp] "
               "[--crash P:TIME_US]... [--mistakes PROB]\n"
            << "       scenario_cli lockstep --n N --f F [--rounds R] "
               "[--seed S] [--substrate sim|threads|tcp] "
               "[--crash P:TIME_US]... [--budget-ms MS]\n"
            << "       scenario_cli tcp   --n N --f F [--seed S] "
               "[--kill P] [--truncate P] [--flip P] [--delay P] "
               "[--fault P:BEHAVIOR]... [--budget-ms MS]\n"
            << "       scenario_cli campaign --n N --f F [--seeds K] "
               "[--attacks A,B,...] [--substrates sim,threads,tcp] "
               "[--base-seed S] [--out FILE] [--no-negative-control] "
               "[--list] [--budget-ms MS]\n"
            << "       scenario_cli smr   --n N --backend crash|byz [--f F] "
               "[--window W] [--batch B] [--commands C] "
               "[--clients K --ops M [--in-flight F]] "
               "[--substrate sim|threads|tcp] "
               "[--seed S] [--crash P:TIME_US]... [--checkpoint-interval C] "
               "[--restart P:KILL_US:RESTART_US]... [--budget-ms MS]\n";
  std::exit(2);
}

std::optional<faults::Behavior> parse_behavior(const std::string& name) {
  using faults::Behavior;
  const std::pair<const char*, Behavior> table[] = {
      {"crash", Behavior::kCrash},
      {"mute", Behavior::kMute},
      {"corrupt-vector", Behavior::kCorruptVector},
      {"wrong-round", Behavior::kWrongRound},
      {"duplicate-current", Behavior::kDuplicateCurrent},
      {"duplicate-next", Behavior::kDuplicateNext},
      {"bad-signature", Behavior::kBadSignature},
      {"strip-certificate", Behavior::kStripCertificate},
      {"substitute-next", Behavior::kSubstituteNext},
      {"premature-decide", Behavior::kPrematureDecide},
      {"equivocate", Behavior::kEquivocate},
      {"lie-init", Behavior::kLieInit},
      {"spurious-current", Behavior::kSpuriousCurrent},
      {"future-round", Behavior::kFutureRound},
      {"stale-replay", Behavior::kStaleReplay},
      {"replay-cert", Behavior::kReplayCert},
      {"truncate-cert", Behavior::kTruncateCert},
      {"forge-cert", Behavior::kForgeCert},
      {"selective-mute", Behavior::kSelectiveMute},
      {"split-brain", Behavior::kSplitBrain},
  };
  for (auto& [n, b] : table) {
    if (name == n) return b;
  }
  return std::nullopt;
}

// `--crash P:TIME_US`: process P (1-based) crashes for good at TIME_US.
faults::CrashSpec parse_crash(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage("crash must be P:TIME_US");
  const auto pid = std::stoul(spec.substr(0, colon));
  const auto at = std::stoull(spec.substr(colon + 1));
  if (pid < 1) usage("process ids are 1-based");
  return faults::CrashSpec{ProcessId{static_cast<std::uint32_t>(pid - 1)},
                           SimTime{at}, std::nullopt};
}

int run_bft(int argc, char** argv) {
  faults::BftScenarioConfig cfg;
  cfg.n = 0;
  std::string trace_path;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--substrate") {
      auto backend = runtime::parse_backend(next());
      if (!backend) usage("substrate must be sim, threads or tcp");
      cfg.substrate = *backend;
    } else if (arg == "--budget-ms") {
      cfg.budget = std::chrono::milliseconds(std::stoull(next()));
    } else if (arg == "--rsa") {
      cfg.scheme = faults::Scheme::kRsa64;
    } else if (arg == "--no-prune") {
      cfg.prune = false;
    } else if (arg == "--turbulent") {
      cfg.latency = sim::turbulent_until(200'000);
    } else if (arg == "--audit") {
      cfg.stop_on_decide = false;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--fault") {
      std::string spec = next();
      auto colon = spec.find(':');
      if (colon == std::string::npos) usage("fault must be P:BEHAVIOR");
      const auto pid = std::stoul(spec.substr(0, colon));
      auto behavior = parse_behavior(spec.substr(colon + 1));
      if (!behavior || pid < 1) usage("unknown fault behaviour or process");
      faults::FaultSpec f;
      f.who = ProcessId{static_cast<std::uint32_t>(pid - 1)};
      f.behavior = *behavior;
      cfg.faults.push_back(f);
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  if (cfg.f > bft::max_tolerated_faults(cfg.n)) {
    std::cerr << "note: F=" << cfg.f << " exceeds min((n-1)/2, (n-1)/3) = "
              << bft::max_tolerated_faults(cfg.n)
              << "; overriding the certification bound (guarantees void — "
                 "see bench_e9)\n";
    cfg.certification_bound = cfg.f;
  }

  sim::TraceRecorder trace;
  if (!trace_path.empty()) {
    cfg.delivery_tap = [&trace](const sim::Delivery& d) { trace.record(d); };
  }

  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace.write_jsonl(out);
    std::cerr << "trace: " << trace.events().size() << " deliveries -> "
              << trace_path << " (fingerprint " << std::hex
              << trace.fingerprint() << std::dec << ")\n";
  }

  std::size_t correct_decided = 0;
  for (std::uint32_t i : r.correct) correct_decided += r.decisions.count(i);

  std::cout << "protocol:            transformed BFT vector consensus\n"
            << "substrate:           " << runtime::backend_name(cfg.substrate)
            << " (" << runtime::run_outcome_name(r.outcome) << ")\n"
            << "n / F / quorum:      " << cfg.n << " / " << cfg.f << " / "
            << cfg.n - cfg.f << "\n"
            << "decided:             " << correct_decided << "/"
            << r.correct.size() << " correct processes\n"
            << "termination:         " << (r.termination ? "yes" : "NO") << "\n"
            << "agreement:           " << (r.agreement ? "yes" : "NO") << "\n"
            << "vector validity:     " << (r.vector_validity ? "yes" : "NO")
            << " (correct entries >= " << r.min_correct_entries << ")\n"
            << "detectors reliable:  " << (r.detectors_reliable ? "yes" : "NO")
            << "\n"
            << "decision round:      " << r.max_decision_round.value << "\n"
            << "decision time:       " << r.last_decision_time / 1000.0
            << " sim ms\n"
            << "messages / bytes:    " << r.run_stats.net.messages_sent << " / "
            << r.run_stats.net.bytes_sent << "\n"
            << "largest message:     " << r.max_message_bytes << " bytes\n";
  if (!r.declared_faulty.empty()) {
    std::cout << "convicted processes:";
    for (std::uint32_t p : r.declared_faulty) std::cout << " p" << p + 1;
    std::cout << "\n";
  }
  std::map<std::string, int> grouped;
  for (const auto& rec : r.records) {
    std::ostringstream os;
    os << rec.culprit << ": " << bft::fault_kind_name(rec.kind) << " — "
       << rec.detail;
    grouped[os.str()] += 1;
  }
  for (const auto& [what, count] : grouped) {
    std::cout << "  detection ×" << count << "  " << what << "\n";
  }
  std::cout << "run stats:           "
            << runtime::to_json(cfg.substrate, r.run_stats) << "\n";
  return r.termination && r.agreement && r.vector_validity ? 0 : 1;
}

int run_crash(int argc, char** argv) {
  faults::CrashScenarioConfig cfg;
  cfg.n = 0;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--substrate") {
      auto backend = runtime::parse_backend(next());
      if (!backend) usage("substrate must be sim, threads or tcp");
      cfg.substrate = *backend;
    } else if (arg == "--protocol") {
      std::string p = next();
      if (p == "hr") {
        cfg.protocol = faults::CrashProtocol::kHurfinRaynal;
      } else if (p == "ct") {
        cfg.protocol = faults::CrashProtocol::kChandraToueg;
      } else {
        usage("protocol must be hr or ct");
      }
    } else if (arg == "--crash") {
      const faults::CrashSpec c = parse_crash(next());
      if (cfg.crash_times.size() <= c.who.value) {
        cfg.crash_times.resize(c.who.value + 1);
      }
      cfg.crash_times[c.who.value] = c.at;
    } else if (arg == "--mistakes") {
      cfg.oracle.false_suspicion_prob = std::stod(next());
      cfg.oracle.stabilization_time = 300'000;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  cfg.crash_times.resize(cfg.n);

  faults::CrashScenarioResult r = faults::run_crash_scenario(cfg);

  // On wall-clock substrates a late-crashing process may decide before the
  // crash lands; count decisions over the correct set only.
  std::size_t correct_decided = 0;
  for (std::uint32_t i : r.correct) correct_decided += r.decisions.count(i);

  std::cout << "protocol:        "
            << (cfg.protocol == faults::CrashProtocol::kHurfinRaynal
                    ? "Hurfin-Raynal"
                    : "Chandra-Toueg")
            << " (crash model, oracle ◇S)\n"
            << "substrate:       " << runtime::backend_name(cfg.substrate)
            << " (" << runtime::run_outcome_name(r.outcome) << ")\n"
            << "n:               " << cfg.n << "\n"
            << "decided:         " << correct_decided << "/"
            << r.correct.size() << " correct processes\n"
            << "termination:     " << (r.termination ? "yes" : "NO") << "\n"
            << "agreement:       " << (r.agreement ? "yes" : "NO") << "\n"
            << "validity:        " << (r.validity ? "yes" : "NO") << "\n"
            << "decision round:  " << r.max_decision_round.value << "\n"
            << "decision time:   " << r.last_decision_time / 1000.0
            << " sim ms\n"
            << "messages/bytes:  " << r.run_stats.net.messages_sent << " / "
            << r.run_stats.net.bytes_sent << "\n"
            << "run stats:       "
            << runtime::to_json(cfg.substrate, r.run_stats) << "\n";
  return r.termination && r.agreement && r.validity ? 0 : 1;
}

int run_lockstep(int argc, char** argv) {
  faults::LockstepScenarioConfig cfg;
  cfg.n = 0;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--rounds") {
      cfg.rounds = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--substrate") {
      auto backend = runtime::parse_backend(next());
      if (!backend) usage("substrate must be sim, threads or tcp");
      cfg.substrate = *backend;
    } else if (arg == "--budget-ms") {
      cfg.budget = std::chrono::milliseconds(std::stoull(next()));
    } else if (arg == "--crash") {
      cfg.crashes.push_back(parse_crash(next()));
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  if (cfg.f >= cfg.n || cfg.rounds < 1) usage("need F < n and R >= 1");
  for (const faults::CrashSpec& c : cfg.crashes) {
    if (c.who.value >= cfg.n) usage("crashed process out of range");
  }

  faults::LockstepScenarioResult r = faults::run_lockstep_scenario(cfg);

  std::size_t finished = 0;
  for (std::uint32_t i : r.correct) finished += r.finished.count(i);

  std::cout << "protocol:            certified lockstep barrier (transformed)\n"
            << "substrate:           " << runtime::backend_name(cfg.substrate)
            << " (" << runtime::run_outcome_name(r.outcome) << ")\n"
            << "n / F / quorum:      " << cfg.n << " / " << cfg.f << " / "
            << cfg.n - cfg.f << "\n"
            << "rounds:              " << cfg.rounds << "\n"
            << "finished:            " << finished << "/" << r.correct.size()
            << " correct processes\n"
            << "all finished:        "
            << (r.all_correct_finished ? "yes" : "NO") << "\n"
            << "false accusations:   "
            << (r.no_false_accusations ? "none" : "YES") << "\n";
  for (const bft::FaultRecord& rec : r.records) {
    std::cout << "  detection  " << rec.culprit << ": "
              << bft::fault_kind_name(rec.kind) << " — " << rec.detail
              << " (at " << rec.time << " us)\n";
  }
  std::cout << "run stats:           "
            << runtime::to_json(cfg.substrate, r.run_stats) << "\n";
  return r.all_correct_finished && r.no_false_accusations ? 0 : 1;
}

int run_tcp(int argc, char** argv) {
  // The TCP substrate via the generic runner, plus link chaos: everything
  // the hand-wired version did, in one BftScenarioConfig.
  faults::BftScenarioConfig cfg;
  cfg.n = 0;
  cfg.substrate = runtime::Backend::kTcp;
  cfg.budget = std::chrono::milliseconds(30'000);
  faults::LinkFaultSpec link;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--kill") {
      link.kill_prob = std::stod(next());
    } else if (arg == "--truncate") {
      link.truncate_prob = std::stod(next());
    } else if (arg == "--flip") {
      link.flip_prob = std::stod(next());
    } else if (arg == "--delay") {
      link.delay_prob = std::stod(next());
    } else if (arg == "--budget-ms") {
      cfg.budget = std::chrono::milliseconds(std::stoull(next()));
    } else if (arg == "--fault") {
      std::string spec = next();
      auto colon = spec.find(':');
      if (colon == std::string::npos) usage("fault must be P:BEHAVIOR");
      const auto pid = std::stoul(spec.substr(0, colon));
      auto behavior = parse_behavior(spec.substr(colon + 1));
      if (!behavior || pid < 1) usage("unknown fault behaviour or process");
      faults::FaultSpec fs;
      fs.who = ProcessId{static_cast<std::uint32_t>(pid - 1)};
      fs.behavior = *behavior;
      cfg.faults.push_back(fs);
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  if (cfg.f > bft::max_tolerated_faults(cfg.n)) {
    usage("F exceeds min((n-1)/2,(n-1)/3)");
  }
  const bool any_link_fault = link.kill_prob > 0 || link.truncate_prob > 0 ||
                              link.flip_prob > 0 || link.delay_prob > 0;
  if (any_link_fault) cfg.link_faults = {link};

  faults::BftScenarioResult r = faults::run_bft_scenario(cfg);

  std::size_t correct_decided = 0;
  for (std::uint32_t i : r.correct) correct_decided += r.decisions.count(i);

  const transport::TcpLinkStats& stats = r.run_stats.link;
  std::cout << "protocol:            transformed BFT over loopback TCP\n"
            << "n / F / quorum:      " << cfg.n << " / " << cfg.f << " / "
            << cfg.n - cfg.f << "\n"
            << "decided:             " << correct_decided << "/"
            << r.correct.size() << " correct processes\n"
            << "agreement:           " << (r.agreement ? "yes" : "NO") << "\n"
            << "clean shutdown:      " << (r.clean ? "yes" : "NO") << " ("
            << r.unstopped.size() << " unstopped)\n"
            << "frames / bytes sent: " << r.run_stats.link.frames_sent << " / "
            << r.run_stats.link.bytes_sent << "\n"
            << "link faults:         kills " << stats.kills_injected
            << ", truncates " << stats.truncates_injected << ", flips "
            << stats.flips_injected << ", delays " << stats.delays_injected
            << "\n"
            << "recovery:            reconnects " << stats.reconnects
            << ", retransmits " << stats.retransmits << ", checksum drops "
            << stats.checksum_failures << ", dups suppressed "
            << stats.dup_suppressed << "\n"
            << "degraded links:      " << stats.degraded << "\n"
            << "run stats:           "
            << runtime::to_json(cfg.substrate, r.run_stats) << "\n";
  return correct_decided == r.correct.size() && r.agreement ? 0 : 1;
}

/// SHA-256 of a store in canonical form: every key and value
/// length-prefixed, in key order.
std::string store_digest(const std::map<std::string, std::string>& store) {
  Writer w;
  for (const auto& [key, value] : store) {
    w.str(key);
    w.str(value);
  }
  return to_hex(crypto::digest_bytes(crypto::sha256(std::move(w).take())));
}

int run_smr(int argc, char** argv) {
  faults::SmrScenarioConfig cfg;
  cfg.n = 0;
  std::uint32_t commands = 0;
  faults::ClientLoadConfig load;
  load.count = 0;
  load.ops_per_client = 0;
  std::uint32_t in_flight = 1;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--substrate") {
      auto backend = runtime::parse_backend(next());
      if (!backend) usage("substrate must be sim, threads or tcp");
      cfg.substrate = *backend;
    } else if (arg == "--backend") {
      std::string b = next();
      if (b == "crash") {
        cfg.backend = smr::Backend::kCrashHurfinRaynal;
      } else if (b == "byz") {
        cfg.backend = smr::Backend::kByzantine;
      } else {
        usage("backend must be crash or byz");
      }
    } else if (arg == "--window") {
      cfg.window = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--batch") {
      cfg.batch = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--commands") {
      commands = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--clients") {
      load.count = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--ops") {
      load.ops_per_client = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--in-flight") {
      in_flight = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--budget-ms") {
      cfg.budget = std::chrono::milliseconds(std::stoull(next()));
    } else if (arg == "--checkpoint-interval") {
      cfg.checkpoint_interval = std::stoull(next());
    } else if (arg == "--crash") {
      cfg.crashes.push_back(parse_crash(next()));
    } else if (arg == "--restart") {
      std::string spec = next();
      auto c1 = spec.find(':');
      auto c2 = c1 == std::string::npos ? std::string::npos
                                        : spec.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        usage("restart must be P:KILL_US:RESTART_US");
      }
      const auto pid = std::stoul(spec.substr(0, c1));
      const auto kill_at = std::stoull(spec.substr(c1 + 1, c2 - c1 - 1));
      const auto back_at = std::stoull(spec.substr(c2 + 1));
      if (pid < 1) usage("process ids are 1-based");
      if (back_at <= kill_at) usage("RESTART_US must be > KILL_US");
      cfg.crashes.push_back(
          faults::CrashSpec{ProcessId{static_cast<std::uint32_t>(pid - 1)},
                            SimTime{kill_at}, SimTime{back_at}});
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  if (cfg.window < 1 || cfg.batch < 1) usage("--window/--batch must be >= 1");
  if ((load.count > 0) != (load.ops_per_client > 0)) {
    usage("--clients and --ops go together");
  }
  if (load.count > 0 && commands > 0) {
    usage("--commands and --clients are exclusive");
  }
  if (in_flight < 1 || in_flight > smr::kReplyCacheDepth) {
    usage(("--in-flight must be in [1, " +
           std::to_string(smr::kReplyCacheDepth) + "]")
              .c_str());
  }
  for (const faults::CrashSpec& c : cfg.crashes) {
    if (c.restart_at.has_value() && cfg.checkpoint_interval == 0) {
      usage("--restart requires --checkpoint-interval");
    }
  }

  // Synthetic workload: K puts/deletes cycling over 8 keys.
  if (commands > 0) cfg.workload = faults::kv_workload(commands);
  const std::uint64_t client_ops =
      std::uint64_t{load.count} * load.ops_per_client;
  if (load.count > 0) {
    load.max_outstanding = in_flight;
    cfg.clients = load;
  }

  faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);

  const runtime::PipelineSummary& pipe = r.run_stats.pipeline;
  const double wall_s = static_cast<double>(r.run_stats.wall_us) / 1e6;
  std::cout << "protocol:        pipelined SMR ("
            << (cfg.backend == smr::Backend::kByzantine
                    ? "Byzantine vector consensus"
                    : "Hurfin-Raynal, crash model")
            << ")\n"
            << "substrate:       " << runtime::backend_name(cfg.substrate)
            << " (" << runtime::run_outcome_name(r.outcome) << ")\n"
            << "n / slots:       " << cfg.n << " / " << pipe.slots_committed
            << "\n"
            << "window / batch:  " << cfg.window << " / " << cfg.batch << "\n"
            << "all committed:   " << (r.all_committed ? "yes" : "NO") << "\n"
            << "stores agree:    " << (r.stores_agree ? "yes" : "NO") << "\n"
            << "store digest:    " << store_digest(r.store) << "\n"
            << "commands:        " << pipe.commands_committed << " ("
            << pipe.noop_slots << " no-op slots, max batch "
            << pipe.max_batch << ")\n"
            << "window peak/avg: " << pipe.window_peak << " / "
            << pipe.avg_window << "\n";
  if (cfg.checkpoint_interval > 0) {
    std::cout << "checkpoints:     " << pipe.checkpoints_taken << " taken, "
              << pipe.checkpoint_certs << " certified, " << pipe.log_truncated
              << " slots compacted (log peak " << pipe.log_peak << ")\n"
              << "recovered:       " << r.recovered.size() << " replica(s)";
    for (std::uint32_t p : r.recovered) std::cout << " p" << p + 1;
    std::cout << " (worst rejoin " << pipe.recovery_us / 1000.0 << " ms)\n";
  }
  if (wall_s > 0) {
    std::cout << "commits/sec:     "
              << static_cast<double>(pipe.commands_committed) / wall_s << "\n";
  }
  const runtime::ClientSummary& cs = r.run_stats.client;
  if (cfg.clients.has_value()) {
    std::cout << "clients:         " << load.count << " x "
              << load.ops_per_client << " ops, " << in_flight
              << " in flight: " << cs.accepted << "/" << client_ops
              << " certified, " << r.clients_done.size() << " done\n"
              << "client latency:  p50 " << cs.p50_us / 1000.0 << " ms, p99 "
              << cs.p99_us / 1000.0 << " ms (" << cs.retries << " retries, "
              << cs.failovers << " failovers, " << cs.busy << " busy)\n";
  }
  std::cout << "run stats:       "
            << runtime::to_json(cfg.substrate, r.run_stats) << "\n";
  const bool clients_ok =
      !cfg.clients.has_value() || r.clients_done.size() == load.count;
  return r.all_committed && r.stores_agree && clients_ok ? 0 : 1;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run_campaign_mode(int argc, char** argv) {
  adversary::CampaignConfig cfg;
  std::string out_path;
  bool list_only = false;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--f") {
      cfg.f = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--seeds") {
      cfg.seeds = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--base-seed") {
      cfg.base_seed = std::stoull(next());
    } else if (arg == "--attacks") {
      cfg.attacks = split_csv(next());
    } else if (arg == "--substrates") {
      cfg.substrates.clear();
      for (const std::string& name : split_csv(next())) {
        auto backend = runtime::parse_backend(name);
        if (!backend) usage("substrates must be sim, threads or tcp");
        cfg.substrates.push_back(*backend);
      }
      if (cfg.substrates.empty()) usage("--substrates needs at least one");
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--budget-ms") {
      cfg.budget = std::chrono::milliseconds(std::stoull(next()));
    } else if (arg == "--no-negative-control") {
      cfg.negative_control = false;
    } else if (arg == "--list") {
      list_only = true;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.n == 0) usage("--n is required");
  if (cfg.f > bft::max_tolerated_faults(cfg.n)) {
    usage("F exceeds min((n-1)/2,(n-1)/3)");
  }

  if (list_only) {
    for (const adversary::AttackSpec& a :
         adversary::attack_catalog(cfg.n, cfg.f)) {
      std::cout << a.name << "  [" << a.paper_class << "]  " << a.description
                << "\n";
    }
    if (adversary::smr_cell_fits(cfg.n, cfg.f)) {
      for (const adversary::SmrAttackEntry& e :
           adversary::smr_attack_catalog()) {
        std::cout << e.name << "  [smr: " << e.paper_class << "]  "
                  << e.description << "\n";
      }
    }
    return 0;
  }

  adversary::CampaignReport report;
  try {
    report = adversary::run_campaign(cfg);
  } catch (const std::invalid_argument& e) {
    usage((std::string(e.what()) + " (see --list)").c_str());
  }

  for (const adversary::CellOutcome& cell : report.cells) {
    if (cell.pass()) continue;
    std::cout << "FAIL " << cell.attack << " on "
              << runtime::backend_name(cell.substrate) << " seed " << cell.seed
              << ":";
    for (const std::string& check : cell.failed_checks()) {
      std::cout << " [" << check << "]";
    }
    for (const adversary::Violation& v : cell.violations) {
      std::cout << "\n  " << adversary::violation_name(v.kind) << ": "
                << v.detail;
    }
    if (!cell.minimized.empty()) std::cout << "\n  minimized: "
                                           << cell.minimized;
    std::cout << "\n";
  }
  std::cout << "campaign:          " << report.cells_run << " cells, "
            << report.cells_failed << " failed (n=" << report.n
            << ", f=" << report.f << ")\n";
  for (const adversary::ControlOutcome& control : report.controls) {
    std::cout << "negative control:  " << control.name << " "
              << (control.flagged ? "flagged" : "MISSED");
    for (const std::string& finding : control.findings) {
      std::cout << " " << finding;
    }
    std::cout << "\n";
  }
  std::cout << "verdict:           "
            << (report.ok                ? "OK"
                : report.cells_run == 0 ? "NO CELLS RAN"
                                        : "VIOLATIONS")
            << "\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << adversary::to_json(cfg, report);
    std::cout << "report:            " << out_path << "\n";
  }
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  if (std::strcmp(argv[1], "bft") == 0) return run_bft(argc, argv);
  if (std::strcmp(argv[1], "crash") == 0) return run_crash(argc, argv);
  if (std::strcmp(argv[1], "lockstep") == 0) return run_lockstep(argc, argv);
  if (std::strcmp(argv[1], "tcp") == 0) return run_tcp(argc, argv);
  if (std::strcmp(argv[1], "campaign") == 0) {
    return run_campaign_mode(argc, argv);
  }
  if (std::strcmp(argv[1], "smr") == 0) return run_smr(argc, argv);
  usage("mode must be 'bft', 'crash', 'lockstep', 'tcp', 'campaign' or "
        "'smr'");
}
