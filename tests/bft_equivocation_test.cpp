// A genuine equivocation attack on the transformed protocol.
//
// The fault-injection wrapper cannot produce *well-formed* equivocation:
// an honest process stores exactly one n−F INIT quorum, and mutating the
// vector breaks the certificate.  A real attacker, however, can wait for
// ALL n INITs and assemble two different quorums — {p1..p5} and
// {p1,p2,p3,p6,p7} for n = 7 — each certifying a different vector.  Both
// CURRENTs are individually well-formed, so the Figure 4 monitors accept
// them; detection must come from the *cross-message* equivocation check in
// the protocol module (two conflicting certified vectors in one round ⇒
// the coordinator signed both ⇒ provable misbehaviour).
//
// This is the strongest adversary the certificate design admits, and the
// test shows the protocol still satisfies Agreement, Termination, Vector
// Validity and detector reliability under it.
#include <gtest/gtest.h>

#include <map>

#include "bft/bft_consensus.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_cache.hpp"
#include "faults/split_brain.hpp"
#include "sim/simulation.hpp"

namespace modubft::bft {
namespace {

constexpr std::uint32_t kN = 7;
constexpr std::uint32_t kF = 2;
constexpr std::uint32_t kQuorum = kN - kF;

struct Snapshot {
  std::map<std::uint32_t, VectorDecision> decisions;
  std::vector<std::vector<FaultRecord>> records;
  /// Digest of the full delivery trace (from ‖ to ‖ wire bytes, in
  /// delivery order).  Byte-identical traffic ⇒ equal digests.
  crypto::Digest wire_digest{};
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Runs the attack with every correct process verifying through the plain
/// scheme, or (`cached`) through a CachingVerifier of its own, whose
/// counters the snapshot sums.
Snapshot run_attack(std::uint64_t seed, bool cached = true) {
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, seed);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = seed;
  sim::Simulation world(sim_cfg);

  BftConfig proto;
  proto.n = kN;
  proto.f = kF;

  Snapshot snap;
  crypto::Sha256 trace;
  world.set_delivery_tap([&trace](const sim::Delivery& d) {
    const std::uint8_t ends[2] = {static_cast<std::uint8_t>(d.from.value),
                                  static_cast<std::uint8_t>(d.to.value)};
    trace.update(ends, sizeof ends);
    trace.update(*d.payload);
  });
  std::vector<const BftProcess*> views(kN, nullptr);
  std::vector<std::shared_ptr<crypto::CachingVerifier>> caches(kN);

  world.set_actor(ProcessId{0},
                  std::make_unique<faults::SplitBrainCoordinator>(
                      kN, keys.signers[0].get(), kQuorum, kN / 2));
  for (std::uint32_t i = 1; i < kN; ++i) {
    std::shared_ptr<const crypto::Verifier> verifier = keys.verifier;
    if (cached) {
      caches[i] = std::make_shared<crypto::CachingVerifier>(keys.verifier);
      verifier = caches[i];
    }
    auto proc = std::make_unique<BftProcess>(
        proto, 1000 + i, keys.signers[i].get(), std::move(verifier),
        [&snap, i](ProcessId, const VectorDecision& d) {
          snap.decisions.emplace(i, d);
        });
    views[i] = proc.get();
    world.set_actor(ProcessId{i}, std::move(proc));
  }
  world.run();

  snap.records.resize(kN);
  for (std::uint32_t i = 1; i < kN; ++i) {
    snap.records[i] = views[i]->nonmuteness().records();
    EXPECT_EQ(views[i]->verify_cache(), caches[i].get())
        << "p" << i + 1 << " must verify through exactly the handed verifier";
    if (caches[i]) {
      snap.cache_hits += caches[i]->stats().cache_hits;
      snap.cache_misses += caches[i]->stats().cache_misses;
    }
  }
  snap.wire_digest = trace.finish();
  return snap;
}

TEST(Equivocation, BothVariantsAreIndividuallyWellFormed) {
  // Sanity: the attack really does produce two well-formed CURRENTs, i.e.
  // it cannot be caught by any single-message check.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 1);
  CertAnalyzer analyzer(kN, kQuorum, keys.verifier);

  auto make_init = [&](std::uint32_t j) {
    MessageCore core;
    core.kind = BftKind::kInit;
    core.sender = ProcessId{j};
    core.round = Round{0};
    core.init_value = 1000 + j;
    SignedMessage m;
    m.core = core;
    m.sig = keys.signers[j]->sign(signing_bytes(m.core, m.cert));
    return m;
  };
  auto make_current = [&](const std::vector<std::uint32_t>& quorum) {
    Certificate cert;
    VectorValue vect(kN, std::nullopt);
    for (std::uint32_t j : quorum) {
      cert.add(make_init(j));
      vect[j] = 1000 + j;
    }
    MessageCore core;
    core.kind = BftKind::kCurrent;
    core.sender = ProcessId{0};
    core.round = Round{1};
    core.est = vect;
    SignedMessage m;
    m.core = std::move(core);
    m.cert = std::move(cert);
    m.sig = keys.signers[0]->sign(signing_bytes(m.core, m.cert));
    return m;
  };

  SignedMessage a = make_current({0, 1, 2, 3, 4});
  SignedMessage b = make_current({0, 1, 2, 5, 6});
  EXPECT_TRUE(analyzer.current_wf(a));
  EXPECT_TRUE(analyzer.current_wf(b));
  EXPECT_NE(a.core.est, b.core.est);
}

TEST(Equivocation, AttackIsDetectedAndMasked) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Snapshot snap = run_attack(seed);

    // All six correct processes decide the same vector.
    ASSERT_EQ(snap.decisions.size(), kN - 1) << "seed " << seed;
    const VectorValue& ref = snap.decisions.begin()->second.entries;
    for (auto& [i, d] : snap.decisions) {
      EXPECT_EQ(d.entries, ref) << "seed " << seed << " p" << i + 1;
    }

    // At least one correct process convicted the coordinator of
    // equivocation, and nobody accused a correct process.
    bool equivocation_seen = false;
    for (std::uint32_t i = 1; i < kN; ++i) {
      for (const FaultRecord& rec : snap.records[i]) {
        EXPECT_EQ(rec.culprit, (ProcessId{0}))
            << "false accusation by p" << i + 1 << " (seed " << seed << ")";
        equivocation_seen |= rec.kind == FaultKind::kEquivocation;
      }
    }
    EXPECT_TRUE(equivocation_seen) << "seed " << seed;
  }
}

// Certificate fast path: the verified-signature cache is an optimization,
// never a semantic change.  Under the strongest adversary in this suite a
// run whose processes are handed plain verifiers and one whose processes
// are handed caches must be indistinguishable on the wire and in every
// verdict.
TEST(Equivocation, VerifyCacheOnOffEquivalentUnderAttack) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    Snapshot on = run_attack(seed, /*cached=*/true);
    Snapshot off = run_attack(seed, /*cached=*/false);

    // Byte-identical traffic: same messages, same order, same encoding.
    EXPECT_EQ(on.wire_digest, off.wire_digest) << "seed " << seed;

    // Same decisions...
    ASSERT_EQ(on.decisions.size(), off.decisions.size()) << "seed " << seed;
    for (auto& [i, d] : on.decisions) {
      auto it = off.decisions.find(i);
      ASSERT_NE(it, off.decisions.end()) << "seed " << seed << " p" << i + 1;
      EXPECT_EQ(d.entries, it->second.entries) << "seed " << seed;
      EXPECT_EQ(d.round, it->second.round) << "seed " << seed;
    }

    // ...and the same fault verdicts, in the same order.
    for (std::uint32_t i = 1; i < kN; ++i) {
      ASSERT_EQ(on.records[i].size(), off.records[i].size())
          << "seed " << seed << " p" << i + 1;
      for (std::size_t k = 0; k < on.records[i].size(); ++k) {
        EXPECT_EQ(on.records[i][k].culprit, off.records[i][k].culprit);
        EXPECT_EQ(on.records[i][k].kind, off.records[i][k].kind);
      }
    }

    // The handed caches themselves answered repeated lookups: no second
    // cache inside the process absorbed them.
    EXPECT_GT(on.cache_hits, 0u) << "seed " << seed;
    EXPECT_EQ(off.cache_hits + off.cache_misses, 0u) << "seed " << seed;
  }
}

TEST(Equivocation, DecidedVectorStillMeetsValidityFloor) {
  Snapshot snap = run_attack(42);
  ASSERT_FALSE(snap.decisions.empty());
  const VectorValue& v = snap.decisions.begin()->second.entries;
  std::uint32_t correct_entries = 0;
  for (std::uint32_t j = 1; j < kN; ++j) {
    if (v[j].has_value() && *v[j] == 1000 + j) ++correct_entries;
  }
  EXPECT_GE(correct_entries, kN - 2 * kF);
}

}  // namespace
}  // namespace modubft::bft
