// Substrate-generic scenario runners (declared in faults/scenario.hpp).
//
// Lives in the runtime library rather than faults/ because the threaded
// and TCP backends (transport/) link *above* faults/ — the runners need
// all three runtimes, so they sit at the top of the dependency chain.
#include "faults/scenario.hpp"

#include <algorithm>
#include <mutex>

#include "bft/config.hpp"
#include "bft/lockstep.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/rsa64.hpp"
#include "faults/byzantine.hpp"
#include "faults/split_brain.hpp"

namespace modubft::faults {

namespace {

crypto::SignatureSystem make_keys(Scheme scheme, std::uint32_t n,
                                  std::uint64_t seed) {
  if (scheme == Scheme::kRsa64) {
    return crypto::Rsa64Scheme{}.make_system(n, seed);
  }
  return crypto::HmacScheme{}.make_system(n, seed);
}

std::vector<consensus::Value> default_proposals(
    std::uint32_t n, const std::vector<consensus::Value>& given) {
  if (!given.empty()) {
    MODUBFT_EXPECTS(given.size() == n);
    return given;
  }
  std::vector<consensus::Value> out(n);
  for (std::uint32_t i = 0; i < n; ++i) out[i] = 1000 + i;
  return out;
}

/// The ◇M timeouts and the suspicion poll are simulator-scale by default
/// (40 ms / 10 ms of *virtual* time).  On the wall-clock substrates the
/// same numbers race the OS scheduler, so the runner widens them to values
/// the threaded tests have validated: the ◇M timeout only when the caller
/// left it at the default, the poll period always.  Only the transformed
/// protocol's detectors, which every instance starts afresh, are widened:
/// the SMR crash back-end's one detector per replica life learns its
/// timeouts once, and a 2 s timeout would stall clients behind a crashed
/// coordinator.
fd::MutenessConfig tune_muteness(fd::MutenessConfig muteness,
                                 runtime::Backend backend) {
  if (backend == runtime::Backend::kSim) return muteness;
  const fd::MutenessConfig defaults{};
  if (muteness.initial_timeout == defaults.initial_timeout) {
    muteness.initial_timeout =
        backend == runtime::Backend::kThreads ? 500'000 : 2'000'000;
  }
  return muteness;
}

SimTime poll_period(runtime::Backend backend) {
  if (backend == runtime::Backend::kThreads) return 50'000;
  if (backend == runtime::Backend::kTcp) return 100'000;
  return bft::BftConfig{}.suspicion_poll_period;
}

/// Builds the substrate a runner executes on: `processes` ids under the
/// scenario's shared settings.
std::unique_ptr<runtime::Substrate> make_world(
    const ScenarioSettings& settings, std::uint32_t processes,
    std::vector<LinkFaultSpec> link_faults = {}) {
  runtime::SubstrateConfig cfg;
  cfg.backend = settings.substrate;
  cfg.n = processes;
  cfg.seed = settings.seed;
  cfg.latency = settings.latency;
  cfg.max_time = settings.max_time;
  cfg.budget = settings.budget;
  cfg.link_faults = std::move(link_faults);
  return runtime::make_substrate(cfg);
}

/// Runs `world` to completion (or until `done` holds) and records the
/// outcome fields every scenario result shares.
void record_run(runtime::Substrate& world, ScenarioOutcome& result,
                std::function<bool()> done = nullptr) {
  runtime::RunResult run = world.run(std::move(done));
  result.outcome = run.outcome;
  result.clean = run.clean;
  result.unstopped = std::move(run.unstopped);
  result.run_stats = std::move(run.stats);
}

}  // namespace

std::vector<smr::Command> sample_workload() {
  return {
      {1, smr::Command::Op::kPut, "alpha", "1"},
      {2, smr::Command::Op::kPut, "beta", "2"},
      {3, smr::Command::Op::kPut, "alpha", "3"},  // overwrite
      {4, smr::Command::Op::kDel, "beta", ""},
      {5, smr::Command::Op::kPut, "gamma", "5"},
  };
}

std::vector<smr::Command> kv_workload(std::uint64_t count) {
  std::vector<smr::Command> cmds;
  for (std::uint64_t id = 1; id <= count; ++id) {
    const std::string key = "key" + std::to_string(id % 8);
    if (id % 5 == 0) {
      cmds.push_back({id, smr::Command::Op::kDel, key, ""});
    } else {
      cmds.push_back(
          {id, smr::Command::Op::kPut, key, "v" + std::to_string(id)});
    }
  }
  return cmds;
}

BftScenarioResult run_bft_scenario(const BftScenarioConfig& config) {
  bft::BftConfig proto;
  proto.n = config.n;
  proto.f = config.f;
  proto.prune_nested_next = config.prune;
  proto.certification_bound = config.certification_bound;
  proto.stop_on_decide = config.stop_on_decide;
  proto.muteness = tune_muteness(config.muteness, config.substrate);
  proto.suspicion_poll_period = poll_period(config.substrate);
  proto.validate();

  const std::vector<consensus::Value> proposals =
      default_proposals(config.n, config.proposals);

  crypto::SignatureSystem keys = make_keys(config.scheme, config.n, config.seed);

  std::unique_ptr<runtime::Substrate> world =
      make_world(config, config.n, config.link_faults);
  if (config.delivery_tap) world->set_delivery_tap(config.delivery_tap);

  BftScenarioResult result;
  // On the threaded substrates the decide callbacks arrive concurrently.
  std::mutex decide_mu;

  // Fault assignment lookup.
  std::vector<FaultSpec> spec_of(config.n);
  for (std::uint32_t i = 0; i < config.n; ++i) {
    spec_of[i].who = ProcessId{i};
    spec_of[i].behavior = Behavior::kNone;
  }
  for (const FaultSpec& s : config.faults) {
    MODUBFT_EXPECTS(s.who.value < config.n);
    spec_of[s.who.value] = s;
  }

  std::vector<const bft::BftProcess*> views(config.n, nullptr);

  // Every actor funnels through here so config.wrap_actor (the adversary
  // layer's wire-mutation hook) decorates faulty and correct processes
  // alike before they reach the substrate.
  auto install = [&](ProcessId id, std::unique_ptr<sim::Actor> actor) {
    if (config.wrap_actor) actor = config.wrap_actor(id, std::move(actor));
    world->set_actor(id, std::move(actor));
  };

  for (std::uint32_t i = 0; i < config.n; ++i) {
    const ProcessId id{i};
    const FaultSpec& spec = spec_of[i];

    if (spec.behavior == Behavior::kSplitBrain) {
      // The dual-quorum equivocation attack impersonates the round-1
      // coordinator; it is its own actor, not a wrapped BftProcess.
      MODUBFT_EXPECTS(i == 0);
      install(id, std::make_unique<SplitBrainCoordinator>(
                      config.n, keys.signers[i].get(), config.n - config.f,
                      config.n / 2));
      continue;
    }

    // Each process memoizes its own verdicts (the certificate fast path).
    auto inner = std::make_unique<bft::BftProcess>(
        proto, proposals[i], keys.signers[i].get(),
        std::make_shared<crypto::CachingVerifier>(keys.verifier),
        [&result, &decide_mu, i](ProcessId, const bft::VectorDecision& d) {
          std::lock_guard<std::mutex> lock(decide_mu);
          result.decisions.emplace(i, d);
        });
    views[i] = inner.get();

    if (spec.behavior == Behavior::kNone) {
      if (config.assume_faulty.count(i) == 0) result.correct.insert(i);
      install(id, std::move(inner));
    } else if (spec.behavior == Behavior::kCrash) {
      install(id, std::move(inner));
      world->crash(CrashSpec{id, spec.at, std::nullopt});
    } else {
      install(id, std::make_unique<ByzantineActor>(
                      std::move(inner), keys.signers[i].get(), spec,
                      config.n));
    }
  }

  record_run(*world, result);

  // ---- evaluate the paper's properties over the correct processes ----
  result.termination = true;
  for (std::uint32_t i : result.correct) {
    if (result.decisions.count(i) == 0) result.termination = false;
  }

  result.agreement = true;
  const bft::VectorValue* first = nullptr;
  for (std::uint32_t i : result.correct) {
    auto it = result.decisions.find(i);
    if (it == result.decisions.end()) continue;
    if (first == nullptr) {
      first = &it->second.entries;
    } else if (*first != it->second.entries) {
      result.agreement = false;
    }
    result.max_decision_round =
        std::max(result.max_decision_round, it->second.round);
    result.last_decision_time =
        std::max(result.last_decision_time, it->second.time);
  }

  // Vector Validity (paper §5.1): for correct p_i, vect[i] is v_i or null,
  // and at least n − 2F entries are initial values of correct processes.
  result.vector_validity = true;
  result.min_correct_entries = config.n;
  const std::uint32_t floor_entries = config.n >= 2 * config.f
                                          ? config.n - 2 * config.f
                                          : 0;
  for (std::uint32_t i : result.correct) {
    auto it = result.decisions.find(i);
    if (it == result.decisions.end()) continue;
    const bft::VectorValue& vect = it->second.entries;
    if (vect.size() != config.n) {
      result.vector_validity = false;
      continue;
    }
    std::uint32_t correct_entries = 0;
    for (std::uint32_t j = 0; j < config.n; ++j) {
      const bool j_correct = result.correct.count(j) > 0;
      if (!vect[j].has_value()) continue;
      if (j_correct) {
        if (*vect[j] == proposals[j]) {
          ++correct_entries;
        } else {
          result.vector_validity = false;  // falsified correct entry
        }
      }
    }
    result.min_correct_entries =
        std::min(result.min_correct_entries, correct_entries);
    if (correct_entries < floor_entries) result.vector_validity = false;
  }
  if (result.decisions.empty()) result.vector_validity = false;

  // Detector reliability: correct processes never accuse correct ones.
  result.detectors_reliable = true;
  for (std::uint32_t i : result.correct) {
    for (const bft::FaultRecord& rec : views[i]->nonmuteness().records()) {
      result.records.push_back(rec);
      result.declared_faulty.insert(rec.culprit.value);
      if (result.correct.count(rec.culprit.value) > 0) {
        result.detectors_reliable = false;
      }
    }
    result.max_message_bytes = std::max(
        result.max_message_bytes, views[i]->send_stats().max_message_bytes);
    result.protocol_bytes += views[i]->send_stats().bytes;
    if (const crypto::CachingVerifier* cache = views[i]->verify_cache()) {
      metrics::merge(result.run_stats.verify, cache->stats());
    }
  }

  return result;
}

CrashScenarioResult run_crash_scenario(const CrashScenarioConfig& config) {
  MODUBFT_EXPECTS(config.crash_times.empty() ||
                  config.crash_times.size() == config.n);

  const std::vector<consensus::Value> proposals =
      default_proposals(config.n, config.proposals);

  std::vector<std::optional<SimTime>> crash_times = config.crash_times;
  crash_times.resize(config.n);

  std::unique_ptr<runtime::Substrate> world = make_world(config, config.n);

  CrashScenarioResult result;
  std::mutex decide_mu;

  for (std::uint32_t i = 0; i < config.n; ++i) {
    const ProcessId id{i};
    if (!crash_times[i].has_value()) result.correct.insert(i);

    fd::OracleConfig oracle = config.oracle;
    oracle.seed = config.oracle.seed ^ (0x1000 + i);  // independent mistakes
    auto detector =
        std::make_shared<fd::OracleDetector>(crash_times, oracle);

    auto on_decide = [&result, &decide_mu, i](ProcessId,
                                              const consensus::Decision& d) {
      std::lock_guard<std::mutex> lock(decide_mu);
      result.decisions.emplace(i, d);
    };

    std::unique_ptr<sim::Actor> actor;
    if (config.protocol == CrashProtocol::kHurfinRaynal) {
      actor = std::make_unique<consensus::HurfinRaynalActor>(
          config.n, proposals[i], detector, on_decide);
    } else {
      actor = std::make_unique<consensus::ChandraTouegActor>(
          config.n, proposals[i], detector, on_decide);
    }
    world->set_actor(id, std::move(actor));
    if (crash_times[i].has_value()) {
      world->crash(CrashSpec{id, *crash_times[i], std::nullopt});
    }
  }

  record_run(*world, result);

  result.termination = true;
  for (std::uint32_t i : result.correct) {
    if (result.decisions.count(i) == 0) result.termination = false;
  }

  result.agreement = true;
  result.validity = true;
  std::optional<consensus::Value> decided;
  for (auto& [i, d] : result.decisions) {
    if (result.correct.count(i) == 0) continue;
    if (!decided.has_value()) decided = d.value;
    if (*decided != d.value) result.agreement = false;
    bool proposed = false;
    for (consensus::Value v : proposals) proposed = proposed || v == d.value;
    if (!proposed) result.validity = false;
    result.max_decision_round = std::max(result.max_decision_round, d.round);
    result.last_decision_time = std::max(result.last_decision_time, d.time);
  }

  return result;
}

LockstepScenarioResult run_lockstep_scenario(
    const LockstepScenarioConfig& config) {
  bft::LockstepConfig lcfg;
  lcfg.n = config.n;
  lcfg.f = config.f;
  lcfg.rounds = config.rounds;
  lcfg.muteness = tune_muteness(fd::MutenessConfig{}, config.substrate);

  crypto::SignatureSystem keys =
      make_keys(Scheme::kHmac, config.n, config.seed);

  std::unique_ptr<runtime::Substrate> world = make_world(config, config.n);

  LockstepScenarioResult result;
  std::mutex done_mu;

  std::set<std::uint32_t> crashed;
  for (const CrashSpec& c : config.crashes) {
    MODUBFT_EXPECTS(c.who.value < config.n);
    MODUBFT_EXPECTS(!c.after_commit.has_value());  // no slots to commit
    crashed.insert(c.who.value);
  }

  std::vector<const bft::TransformedActor*> views(config.n, nullptr);
  for (std::uint32_t i = 0; i < config.n; ++i) {
    const ProcessId id{i};
    if (crashed.count(i) == 0) result.correct.insert(i);
    auto actor = bft::make_lockstep_actor(
        lcfg, keys.signers[i].get(), keys.verifier,
        [&result, &done_mu, i](ProcessId, Round r, SimTime) {
          std::lock_guard<std::mutex> lock(done_mu);
          result.finished.emplace(i, r);
        },
        &views[i]);
    world->set_actor(id, std::move(actor));
  }
  for (const CrashSpec& c : config.crashes) world->crash(c);

  record_run(*world, result);

  result.all_correct_finished = true;
  for (std::uint32_t i : result.correct) {
    auto it = result.finished.find(i);
    if (it == result.finished.end() || it->second.value < config.rounds) {
      result.all_correct_finished = false;
    }
  }

  for (std::uint32_t i : result.correct) {
    for (const bft::FaultRecord& rec : views[i]->nonmuteness().records()) {
      result.records.push_back(rec);
      if (result.correct.count(rec.culprit.value) > 0) {
        result.no_false_accusations = false;
      }
    }
  }

  return result;
}

SmrScenarioResult run_smr_scenario(const SmrScenarioConfig& config) {
  const bool client_mode = config.clients.has_value();
  // With live clients the clients ARE the workload, submitting over the
  // request path; a preloaded one would never commit.
  MODUBFT_EXPECTS(!client_mode || config.workload.empty());
  const std::vector<smr::Command> workload =
      config.workload.empty() && !client_mode ? sample_workload()
                                              : config.workload;
  const bool checkpointing = config.checkpoint_interval > 0;
  const std::uint32_t num_clients =
      client_mode ? config.clients->count : 0u;
  // Authenticated client mode defaults to the fault model: on when the
  // backend admits forgery (Byzantine), off under crash faults.  The
  // explicit-false override is the body-forgery negative control.
  const bool client_auth =
      client_mode && config.clients->authenticate.value_or(
                         config.backend == smr::Backend::kByzantine);
  const std::uint32_t in_flight =
      client_mode ? config.clients->max_outstanding : 1u;

  // Clients hold the keyring slots after the replicas.  Key derivation is
  // prefix-stable, so a pre-client run's replica keys are unchanged.
  crypto::SignatureSystem keys =
      make_keys(config.scheme, config.n + num_clients, config.seed);

  // killed marks every scheduled kill, a progress kill
  // (CrashSpec::after_commit) included.  Only the substrate and the
  // evaluation read the schedule: each replica finds crashes in its own
  // traffic.
  std::vector<CrashSpec> crash_specs(config.n);
  std::vector<bool> killed(config.n, false);
  for (const CrashSpec& c : config.crashes) {
    MODUBFT_EXPECTS(c.who.value < config.n);
    MODUBFT_EXPECTS(!c.restart_at.has_value() ||
                    (checkpointing && (c.after_commit.has_value() ||
                                       *c.restart_at > c.at)));
    killed[c.who.value] = true;
    crash_specs[c.who.value] = c;
  }

  // Clients are ordinary substrate processes on ids [n, n + count).
  std::unique_ptr<runtime::Substrate> world =
      make_world(config, config.n + num_clients, config.link_faults);

  SmrScenarioResult result;

  // Correct = never crashed, or crashed WITH a restart (expected to
  // recover and match the quorum) — minus the adversary's assumed-faulty.
  for (std::uint32_t i = 0; i < config.n; ++i) {
    const bool comes_back = crash_specs[i].restart_at.has_value();
    if ((!killed[i] || comes_back) &&
        config.assume_faulty.count(i) == 0) {
      result.correct.insert(i);
    }
  }
  // Retry-timer base of the recovery catch-up and the missing-body fetch,
  // per substrate: both re-ask peers for state known to exist somewhere.
  const SimTime retry_delay =
      config.substrate == runtime::Backend::kSim
          ? 20'000
          : (config.substrate == runtime::Backend::kThreads ? 50'000
                                                            : 100'000);

  // views[i] always points at the CURRENT life of replica i, and
  // fresh_life[i] says whether that is a restarted one.  A restart factory
  // rewrites both on the node's own thread under views_mu, which the end
  // condition also takes while the nodes run; run() joins every node
  // before the views are read back.
  std::vector<const smr::Replica*> views(config.n, nullptr);
  std::vector<bool> fresh_life(config.n, false);
  std::mutex views_mu;

  auto make_rcfg = [&](std::uint32_t i, bool recover) {
    smr::ReplicaConfig rcfg;
    rcfg.n = config.n;
    rcfg.backend = config.backend;
    rcfg.window = config.window;
    rcfg.batch = config.batch;
    rcfg.retry_delay = retry_delay;
    if (config.backend == smr::Backend::kByzantine) {
      rcfg.bft.n = config.n;
      rcfg.bft.f = config.f;
      rcfg.bft.muteness = tune_muteness(fd::MutenessConfig{}, config.substrate);
      rcfg.bft.suspicion_poll_period = poll_period(config.substrate);
      rcfg.bft.validate();
      rcfg.signer = keys.signers[i].get();
      rcfg.verifier = keys.verifier;
    }
    if (checkpointing) {
      rcfg.signer = keys.signers[i].get();
      rcfg.verifier = keys.verifier;
      rcfg.checkpoint.interval = config.checkpoint_interval;
      rcfg.checkpoint.recover = recover;
      rcfg.checkpoint.trust_unverified =
          recover && config.recovery_trust_unverified;
    }
    if (client_mode) {
      rcfg.client.num_clients = num_clients;
      rcfg.client.max_pending = config.clients->max_pending;
      rcfg.client.authenticate = client_auth;
      // The eligibility window must cover the ops a client keeps in flight,
      // or genuine decisions get deferred; it also sizes the reply cache.
      rcfg.client.seq_window = in_flight;
      if (client_auth && rcfg.verifier == nullptr) {
        rcfg.verifier = keys.verifier;
      }
    }
    return rcfg;
  };

  // The witness replica (see runtime::RunStats): the lowest-id correct
  // one with no scheduled crash.  Its one-replica tallies stand for the
  // run, and in client mode it keeps the commit log: every command it
  // applies, with its slot.  The auditor checks client-accepted replies
  // against this map, and a re-applied id (commit_log_duplicates) is an
  // exactly-once violation.  A negative control may mark every replica
  // that is never killed faulty; the log then comes from the lowest-id
  // such replica, which runs the honest replica behind a wire-level
  // attacker and so logs what it really applied.  The callback runs on
  // the keeper's node thread; the results are read after run() joins it,
  // but the mutex also covers a restart factory racing a reader on
  // another thread.
  std::uint32_t witness = config.n;
  for (std::uint32_t i : result.correct) {
    if (!killed[i]) {
      witness = i;
      break;
    }
  }
  std::uint32_t log_keeper = witness;
  for (std::uint32_t i = 0; log_keeper == config.n && i < config.n; ++i) {
    if (!killed[i]) log_keeper = i;
  }
  std::mutex commit_mu;
  smr::CommitFn log_commit;
  result.commit_log_kept = client_mode && log_keeper < config.n;
  if (result.commit_log_kept) {
    log_commit = [&result, &commit_mu](InstanceId slot,
                                       const smr::Command* cmd,
                                       const smr::KvStore&) {
      if (cmd == nullptr) return;
      std::lock_guard<std::mutex> lock(commit_mu);
      const bool fresh =
          result.commit_log
              .emplace(cmd->id, std::make_pair(slot.value, *cmd))
              .second;
      if (!fresh) ++result.commit_log_duplicates;
    };
  }

  // A progress kill fires from the victim's commit callback, on its own
  // node thread, the first time its first life commits a slot at or past
  // the trigger (it commits every slot in order, so that is the trigger
  // slot itself).
  auto kill_on_commit = [&](std::uint32_t i) -> smr::CommitFn {
    return [&world, who = ProcessId{i},
            trigger = *crash_specs[i].after_commit,
            fired = false](InstanceId slot, const smr::Command*,
                           const smr::KvStore&) mutable {
      if (fired || slot.value < trigger) return;
      fired = true;
      world->kill(who);
    };
  };

  auto install = [&](ProcessId id, std::unique_ptr<sim::Actor> actor) {
    if (config.wrap_actor) actor = config.wrap_actor(id, std::move(actor));
    world->set_actor(id, std::move(actor));
  };

  for (std::uint32_t i = 0; i < config.n; ++i) {
    const ProcessId id{i};
    smr::CommitFn on_commit;
    if (i == log_keeper) on_commit = log_commit;
    if (crash_specs[i].after_commit.has_value()) on_commit = kill_on_commit(i);
    auto replica = std::make_unique<smr::Replica>(
        make_rcfg(i, false), workload, std::move(on_commit));
    views[i] = replica.get();
    install(id, std::move(replica));
    if (killed[i]) {
      world->crash(crash_specs[i]);
      if (crash_specs[i].restart_at.has_value()) {
        world->restart(crash_specs[i], [&, i] {
          auto fresh = std::make_unique<smr::Replica>(
              make_rcfg(i, /*recover=*/true), workload, smr::CommitFn{});
          {
            std::lock_guard<std::mutex> lock(views_mu);
            views[i] = fresh.get();
            fresh_life[i] = true;
          }
          std::unique_ptr<sim::Actor> actor = std::move(fresh);
          if (config.wrap_actor) {
            actor = config.wrap_actor(ProcessId{i}, std::move(actor));
          }
          return actor;
        });
      }
    }
  }

  // Client actors (never wrapped: wrap_actor targets replicas, and the
  // adversary model here is a faulty SERVICE, not a faulty client).
  std::vector<const client::Client*> client_views(num_clients, nullptr);
  if (client_mode) {
    const ClientLoadConfig& cl = *config.clients;
    constexpr std::uint32_t kClientKeyspace = 8;  // distinct script keys
    const SimTime retry_base = cl.retry_base.value_or(
        config.substrate == runtime::Backend::kSim
            ? 40'000
            : (config.substrate == runtime::Backend::kThreads ? 200'000
                                                              : 400'000));
    for (std::uint32_t k = 0; k < num_clients; ++k) {
      client::ClientConfig ccfg;
      ccfg.n = config.n;
      ccfg.f = config.f;
      ccfg.backend = config.backend;
      ccfg.max_outstanding = in_flight;
      ccfg.retry_base = retry_base;
      ccfg.contact = k % config.n;
      ccfg.trust_first_reply = cl.trust_first_reply;
      if (client_auth) ccfg.signer = keys.signers[config.n + k].get();
      for (std::uint32_t o = 0; o < cl.ops_per_client; ++o) {
        client::ClientOp op;
        const std::uint32_t key = (k * 7 + o * 3) % kClientKeyspace;
        op.key = "k" + std::to_string(key);
        if (o % 5 == 4) {
          op.op = smr::Command::Op::kDel;
        } else {
          op.op = smr::Command::Op::kPut;
          op.value = "v" + std::to_string(k) + "_" + std::to_string(o);
        }
        ccfg.ops.push_back(std::move(op));
      }
      auto actor = std::make_unique<client::Client>(std::move(ccfg));
      client_views[k] = actor.get();
      world->set_actor(ProcessId{config.n + k}, std::move(actor));
    }
  }

  // The runner ends the run; no replica stops itself.  It is over once
  // every client finished its script and every correct replica applied
  // every command: the clients' whole scripts, or the preloaded workload
  // (exactly-once makes that the exact total).  A replica with a restart
  // counts from its fresh life only; replicas killed for good and
  // assumed-faulty ones are not awaited.  Call with views_mu held while
  // the nodes run.
  const std::uint64_t target =
      client_mode ? std::uint64_t{num_clients} * config.clients->ops_per_client
                  : workload.size();
  auto reached = [&](std::uint32_t i) {
    if (crash_specs[i].restart_at.has_value() && !fresh_life[i]) return false;
    return views[i]->live_applied() >= target;
  };
  auto run_over = [&] {
    std::lock_guard<std::mutex> lock(views_mu);
    return std::all_of(client_views.begin(), client_views.end(),
                       [](const client::Client* c) { return c->finished(); }) &&
           std::all_of(result.correct.begin(), result.correct.end(), reached);
  };

  record_run(*world, result, run_over);
  if (!run_over()) {
    // The run ended short of its end (a limit hit, or nothing was left to
    // run): name exactly who fell short.
    result.clean = false;
    result.unstopped.clear();
    for (std::uint32_t i : result.correct) {
      if (!reached(i)) result.unstopped.push_back(ProcessId{i});
    }
    for (std::uint32_t k = 0; k < num_clients; ++k) {
      if (!client_views[k]->finished()) {
        result.unstopped.push_back(ProcessId{config.n + k});
      }
    }
  }

  result.all_committed =
      !result.correct.empty() &&
      std::all_of(result.correct.begin(), result.correct.end(), reached);
  result.stores_agree = !result.correct.empty();
  const smr::Replica* reference = nullptr;
  for (std::uint32_t i : result.correct) {
    result.committed.emplace(i, views[i]->committed_slots());
    result.stores.emplace(i, views[i]->store().contents());
    if (reference == nullptr) {
      reference = views[i];
      result.store = views[i]->store().contents();
    } else if (views[i]->store().contents() != reference->store().contents()) {
      result.stores_agree = false;
    }
    if (crash_specs[i].restart_at.has_value() && !views[i]->recovering() &&
        views[i]->pipeline_stats().recovery_join_us > 0) {
      result.recovered.insert(i);
    }
  }

  // Run statistics: every declared counter folds by its own rule
  // (common/metrics.hpp).
  runtime::RunStats& stats = result.run_stats;
  std::vector<const smr::PipelineStats*> pipelines;
  for (std::uint32_t i : result.correct) {
    pipelines.push_back(&views[i]->pipeline_stats());
    metrics::merge(stats.client, views[i]->client_service_stats());
    if (const crypto::CachingVerifier* cache = views[i]->verify_cache()) {
      metrics::merge(stats.verify, cache->stats());
    }
  }
  stats.pipeline.window = config.window;
  stats.pipeline.batch = config.batch;
  stats.pipeline.fold(pipelines, witness < config.n
                                     ? &views[witness]->pipeline_stats()
                                     : nullptr);

  if (client_mode) {
    std::vector<const client::ClientStats*> clients;
    for (std::uint32_t k = 0; k < num_clients; ++k) {
      const std::uint32_t pid = config.n + k;
      clients.push_back(&client_views[k]->stats());
      result.client_stats.emplace(pid, client_views[k]->stats());
      result.client_accepted.emplace(pid, client_views[k]->accepted());
      if (client_views[k]->finished()) result.clients_done.insert(pid);
    }
    stats.client.fold(clients);
  }

  return result;
}

}  // namespace modubft::faults
