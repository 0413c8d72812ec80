// Cross-substrate equivalence: the same scenario, unmodified, on the
// deterministic simulator, the threaded in-memory cluster, and the TCP
// loopback cluster (runtime::Backend) — the tentpole claim of the
// substrate-agnostic runtime (docs/RUNTIME.md).
//
// Two assertion regimes:
//   * strict  — when the scenario's outcome is timing-independent (e.g. a
//     bad-signature fault leaves exactly one certifiable INIT quorum) the
//     decided vectors and the declared-faulty sets must be *identical*
//     across substrates;
//   * latency-tolerant — when timing legitimately picks among several
//     correct outcomes (which INITs a coordinator certifies, when a crash
//     lands relative to on_start) only the paper's boolean properties and
//     culprit-set inclusions are compared.
#include <gtest/gtest.h>

#include "faults/scenario.hpp"
#include "runtime/substrate.hpp"

namespace modubft::faults {
namespace {

using runtime::Backend;

constexpr Backend kBackends[] = {Backend::kSim, Backend::kThreads,
                                 Backend::kTcp};

// --------------------------------------------------------------- BFT strict

// n=4, F=1, p2 forges every signature from round 0 on: its INIT is
// rejected by every correct process, leaving exactly n−F = 3 valid INIT
// senders — the certifiable vector is unique, so the decision is
// bit-identical on every substrate regardless of scheduling.
BftScenarioConfig bad_signature_scenario(Backend backend) {
  BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 7;
  cfg.substrate = backend;
  FaultSpec spec;
  spec.who = ProcessId{2};
  spec.behavior = Behavior::kBadSignature;
  spec.from_round = Round{0};  // INITs carry round 0 — corrupt those too
  cfg.faults = {spec};
  return cfg;
}

TEST(SubstrateEquivalence, BadSignatureDecisionsIdentical) {
  std::optional<BftScenarioResult> reference;
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    const BftScenarioResult r =
        run_bft_scenario(bad_signature_scenario(backend));

    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.unstopped.empty());
    EXPECT_TRUE(r.termination);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.vector_validity);
    EXPECT_TRUE(r.detectors_reliable);
    // All three correct processes decided (the decisions map may also
    // record the faulty p2's own local decision — the properties above
    // are evaluated over the correct set only).
    ASSERT_EQ(r.correct, (std::set<std::uint32_t>{0, 1, 3}));
    for (std::uint32_t i : r.correct) {
      EXPECT_TRUE(r.decisions.count(i)) << "process " << i;
    }

    // Every correct process saw at least p2's forged INIT.
    EXPECT_EQ(r.declared_faulty, (std::set<std::uint32_t>{2}));
    for (const bft::FaultRecord& rec : r.records) {
      EXPECT_EQ(rec.culprit.value, 2u);
      EXPECT_EQ(rec.kind, bft::FaultKind::kBadSignature);
    }

    // The unified counters are populated on every backend.
    EXPECT_GT(r.run_stats.net.messages_sent, 0u);
    EXPECT_GT(r.run_stats.net.messages_delivered, 0u);
    if (backend == Backend::kTcp) {
      // Self-deliveries never cross the wire, so wire_bytes may be below
      // the protocol-level byte count; it just has to be populated.
      EXPECT_GT(r.run_stats.link.frames_sent, 0u);
      EXPECT_GT(r.run_stats.link.bytes_sent, 0u);
    }

    if (!reference.has_value()) {
      reference = r;
      continue;
    }
    // Strict: the correct processes' decided vectors match the
    // simulator's bit for bit.
    for (std::uint32_t i : r.correct) {
      auto it = r.decisions.find(i);
      auto ref = reference->decisions.find(i);
      ASSERT_NE(it, r.decisions.end()) << "process " << i;
      ASSERT_NE(ref, reference->decisions.end()) << "process " << i;
      EXPECT_EQ(it->second.entries, ref->second.entries) << "process " << i;
    }
    EXPECT_EQ(r.declared_faulty, reference->declared_faulty);
  }
}

// ------------------------------------------------------------ BFT tolerant

// Mid-run crash: on the wall-clock substrates the crash instant races the
// (fast) protocol, so only the boolean properties are compared.
TEST(SubstrateEquivalence, CrashFaultPropertiesHold) {
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    BftScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = 11;
    cfg.substrate = backend;
    FaultSpec spec;
    spec.who = ProcessId{3};
    spec.behavior = Behavior::kCrash;
    spec.at = 10'000;
    cfg.faults = {spec};

    const BftScenarioResult r = run_bft_scenario(cfg);
    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.termination);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.vector_validity);
    EXPECT_TRUE(r.detectors_reliable);
    // A silent process is a muteness failure: never in the fault records.
    EXPECT_TRUE(r.declared_faulty.empty());
  }
}

// The dual-quorum equivocation attack (kSplitBrain, process 0).  Which
// variant each process relays first is timing-dependent, so the decided
// vectors may differ between substrates — but within one run the correct
// processes must agree, and the only convicted process must be p0.
TEST(SubstrateEquivalence, SplitBrainCulpritAttributedEverywhere) {
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    BftScenarioConfig cfg;
    cfg.n = 7;
    cfg.f = 2;
    cfg.seed = 13;
    cfg.substrate = backend;
    FaultSpec spec;
    spec.who = ProcessId{0};
    spec.behavior = Behavior::kSplitBrain;
    cfg.faults = {spec};

    const BftScenarioResult r = run_bft_scenario(cfg);
    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.termination);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.vector_validity);
    EXPECT_TRUE(r.detectors_reliable);
    // Latency-tolerant: whoever got convicted, it was only ever p0.  On
    // the wall-clock substrates a fast decision can outrun the cross-relay
    // that exposes the equivocation, so conviction itself is guaranteed
    // only under the simulator's deterministic schedule.
    for (std::uint32_t culprit : r.declared_faulty) {
      EXPECT_EQ(culprit, 0u);
    }
    if (backend == Backend::kSim) {
      EXPECT_TRUE(r.declared_faulty.count(0) > 0);
    }
  }
}

// ----------------------------------------------------------------- lockstep

TEST(SubstrateEquivalence, LockstepBarrierTolerationEverywhere) {
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    LockstepScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.rounds = 3;
    cfg.seed = 5;
    cfg.substrate = backend;
    cfg.crashes = {CrashSpec{ProcessId{3}, 5'000, std::nullopt}};

    const LockstepScenarioResult r = run_lockstep_scenario(cfg);
    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.all_correct_finished);
    EXPECT_TRUE(r.no_false_accusations);
    EXPECT_EQ(r.correct, (std::set<std::uint32_t>{0, 1, 2}));
  }
}

// ---------------------------------------------------------------------- SMR

TEST(SubstrateEquivalence, SmrCrashBackendStoresIdentical) {
  std::optional<std::map<std::string, std::string>> reference;
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    SmrScenarioConfig cfg;
    cfg.n = 4;
    cfg.slots = 5;
    cfg.seed = 3;
    cfg.substrate = backend;

    const SmrScenarioResult r = run_smr_scenario(cfg);
    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.all_committed);
    EXPECT_TRUE(r.stores_agree);
    // The workload is fully committed, so the store is deterministic.
    EXPECT_EQ(r.store.at("alpha"), "3");
    EXPECT_EQ(r.store.count("beta"), 0u);
    EXPECT_EQ(r.store.at("gamma"), "5");
    if (!reference.has_value()) {
      reference = r.store;
    } else {
      EXPECT_EQ(r.store, *reference);
    }
  }
}

TEST(SubstrateEquivalence, SmrByzantineBackendAcrossSubstrates) {
  for (Backend backend : kBackends) {
    SCOPED_TRACE(runtime::backend_name(backend));
    SmrScenarioConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.slots = 3;
    cfg.seed = 9;
    cfg.substrate = backend;
    cfg.backend = smr::Backend::kByzantine;

    const SmrScenarioResult r = run_smr_scenario(cfg);
    EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
    EXPECT_TRUE(r.all_committed);
    EXPECT_TRUE(r.stores_agree);
  }
}

// Staged-vs-sequential ingest: the equivalence claim of docs/INGEST.md.
// The same pipelined Byzantine scenario runs with the staged prologue
// forced ON and forced OFF on both wall-clock substrates; every
// run must commit the store the deterministic simulator's strictly
// sequential run commits, bit for bit.  The ingest counters double-check
// which path was actually in force.
TEST(SubstrateEquivalence, SmrStagedIngestMatchesSequentialStores) {
  SmrScenarioConfig base;
  base.n = 4;
  base.f = 1;
  base.slots = 5;
  base.seed = 17;
  base.backend = smr::Backend::kByzantine;
  base.window = 3;
  base.batch = 2;

  // Simulator reference: one message per event, so staging never engages.
  const SmrScenarioResult ref = run_smr_scenario(base);
  ASSERT_TRUE(ref.clean) << runtime::run_outcome_name(ref.outcome);
  ASSERT_TRUE(ref.all_committed);
  ASSERT_TRUE(ref.stores_agree);
  ASSERT_FALSE(ref.store.empty());
  EXPECT_EQ(ref.run_stats.ingest.staged, 0u);

  for (Backend backend : {Backend::kThreads, Backend::kTcp}) {
    for (bool staged : {false, true}) {
      SCOPED_TRACE(std::string(runtime::backend_name(backend)) +
                   (staged ? " staged" : " sequential"));
      SmrScenarioConfig cfg = base;
      cfg.substrate = backend;
      cfg.staged_ingest = staged;

      const SmrScenarioResult r = run_smr_scenario(cfg);
      EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
      EXPECT_TRUE(r.all_committed);
      EXPECT_TRUE(r.stores_agree);
      EXPECT_EQ(r.store, ref.store);
      EXPECT_EQ(r.run_stats.ingest.staged, staged ? 1u : 0u);
      if (!staged) {
        // The sequential path must never report staged activity.
        EXPECT_EQ(r.run_stats.ingest.batches, 0u);
      }
    }
  }
}

// -------------------------------------------------- TCP link-fault overlap

// The scenario runner's TCP path composes with link faults: random frame
// kills are absorbed by the resilient channels below the protocol, so the
// paper's properties still hold and the link stats expose the recovery.
TEST(SubstrateEquivalence, TcpLinkFaultsAbsorbedBelowProtocol) {
  BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 21;
  cfg.substrate = Backend::kTcp;
  LinkFaultSpec kill;
  kill.kill_prob = 0.05;
  kill.max_random_faults = 6;
  kill.kill_at_attempts = {1};  // every link dies at least once
  cfg.link_faults = {kill};

  const BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.clean) << runtime::run_outcome_name(r.outcome);
  EXPECT_TRUE(r.termination);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.vector_validity);
  EXPECT_GT(r.run_stats.link.kills_injected, 0u);
  EXPECT_GT(r.run_stats.link.reconnects, 0u);
}

}  // namespace
}  // namespace modubft::faults
