// Broad property sweeps for the transformed protocol: every combination of
// signature scheme × network model × pruning mode × adversary, checked for
// the paper's four properties (Agreement, Termination, Vector Validity,
// detector reliability).
#include <gtest/gtest.h>

#include <algorithm>

#include "bft/config.hpp"
#include "bft/transform.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "sim/trace.hpp"

namespace modubft {
namespace {

using faults::Behavior;
using faults::BftScenarioConfig;
using faults::BftScenarioResult;
using faults::FaultSpec;
using faults::run_bft_scenario;
using faults::Scheme;

enum class Net { kCalm, kTurbulent };

struct Param {
  Scheme scheme;
  Net net;
  bool prune;
  Behavior behavior;
  std::uint64_t seed;
};

std::string param_name(const Param& p) {
  std::string out;
  out += p.scheme == Scheme::kHmac ? "hmac" : "rsa";
  out += p.net == Net::kCalm ? "_calm" : "_turb";
  out += p.prune ? "_pruned" : "_full";
  out += "_";
  std::string b = behavior_name(p.behavior);
  for (char& c : b)
    if (c == '-') c = '_';
  out += b;
  out += "_s" + std::to_string(p.seed);
  return out;
}

class BftMatrix : public ::testing::TestWithParam<Param> {};

TEST_P(BftMatrix, FourProperties) {
  const Param p = GetParam();
  BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = p.seed;
  cfg.scheme = p.scheme;
  cfg.prune = p.prune;
  if (p.net == Net::kTurbulent) cfg.latency = sim::turbulent_until(120'000);
  if (p.behavior != Behavior::kNone) {
    FaultSpec spec;
    spec.who = ProcessId{0};  // the round-1 coordinator misbehaves
    spec.behavior = p.behavior;
    if (p.behavior == Behavior::kCrash) spec.at = 0;
    cfg.faults = {spec};
  }

  BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination) << param_name(p);
  EXPECT_TRUE(r.agreement) << param_name(p);
  EXPECT_TRUE(r.vector_validity) << param_name(p);
  EXPECT_TRUE(r.detectors_reliable) << param_name(p);
}

std::vector<Param> matrix() {
  std::vector<Param> out;
  const Behavior behaviors[] = {Behavior::kNone, Behavior::kCrash,
                                Behavior::kMute, Behavior::kCorruptVector,
                                Behavior::kEquivocate};
  for (Scheme scheme : {Scheme::kHmac, Scheme::kRsa64}) {
    for (Net net : {Net::kCalm, Net::kTurbulent}) {
      for (bool prune : {true, false}) {
        for (Behavior b : behaviors) {
          // Keep the matrix tractable: the RSA × turbulent × full-cert
          // corner contributes little beyond its neighbours.
          if (scheme == Scheme::kRsa64 && net == Net::kTurbulent && !prune) {
            continue;
          }
          out.push_back({scheme, net, prune, b, 77});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, BftMatrix, ::testing::ValuesIn(matrix()),
                         [](const auto& info) { return param_name(info.param); });

// Seed soak: many seeds on the most adversarial tractable configuration.
class BftSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BftSoak, MaxFaultMixedAdversaries) {
  BftScenarioConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = GetParam();
  FaultSpec a;
  a.who = ProcessId{0};
  a.behavior = Behavior::kCorruptVector;
  FaultSpec b;
  b.who = ProcessId{1};  // round-2 coordinator is also hostile
  b.behavior = Behavior::kMute;
  cfg.faults = {a, b};

  BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination) << "seed " << GetParam();
  EXPECT_TRUE(r.agreement) << "seed " << GetParam();
  EXPECT_TRUE(r.vector_validity) << "seed " << GetParam();
  EXPECT_TRUE(r.detectors_reliable) << "seed " << GetParam();
  // Both hostile coordinators stall their rounds: decision lands in
  // round 3 under an honest coordinator.
  EXPECT_GE(r.max_decision_round.value, 3u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BftSoak,
                         ::testing::Range<std::uint64_t>(1, 26));

// The protocol also works at the n = 2F + 1 extreme permitted by an
// external certification service — for *crash* faults (which never attack
// agreement), the HR quorum logic alone suffices.
TEST(BftEdge, ExternalCertificationBoundWithCrashFaults) {
  BftScenarioConfig cfg;
  cfg.n = 5;
  cfg.f = 2;  // beyond ⌊4/3⌋ = 1: needs the override
  cfg.certification_bound = 2;
  FaultSpec c1;
  c1.who = ProcessId{0};
  c1.behavior = Behavior::kCrash;
  c1.at = 0;
  FaultSpec c2;
  c2.who = ProcessId{1};
  c2.behavior = Behavior::kCrash;
  c2.at = 0;
  cfg.faults = {c1, c2};
  BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.detectors_reliable);
}

// Smallest legal group: n = 2, F = 0 (nothing to tolerate, but the
// machinery must not wedge on the degenerate quorum n − F = 2).
TEST(BftEdge, MinimalGroup) {
  BftScenarioConfig cfg;
  cfg.n = 2;
  cfg.f = 0;
  BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.vector_validity);
}

// Trace-level determinism: the *entire delivery schedule* (not just the
// decisions) replays identically for equal seeds — the strongest
// reproducibility statement the simulator can make.
TEST(BftEdge, TraceLevelDeterminism) {
  auto fingerprint = [](std::uint64_t seed) {
    sim::TraceRecorder trace;
    BftScenarioConfig cfg;
    cfg.n = 7;
    cfg.f = 2;
    cfg.seed = seed;
    FaultSpec spec;
    spec.who = ProcessId{0};
    spec.behavior = Behavior::kEquivocate;
    cfg.faults = {spec};
    cfg.delivery_tap = [&trace](const sim::Delivery& d) { trace.record(d); };
    (void)run_bft_scenario(cfg);
    return trace.fingerprint();
  };
  EXPECT_EQ(fingerprint(71), fingerprint(71));
  EXPECT_NE(fingerprint(71), fingerprint(72));
}

// Forwards to the wrapped actor.  The flooder variant first broadcasts
// `copies` of `flood`; the probe variant records, after every callback,
// the most messages from `source` the wrapped pipeline ever held for each
// watched round.
class FloodHarness final : public sim::Actor {
 public:
  FloodHarness(std::unique_ptr<sim::Actor> inner, std::vector<Bytes> flood,
               std::size_t copies, ProcessId source,
               std::vector<Round> watched, std::vector<std::size_t>* peaks)
      : inner_(std::move(inner)),
        view_(dynamic_cast<const bft::TransformedActor*>(inner_.get())),
        flood_(std::move(flood)),
        copies_(copies),
        source_(source),
        watched_(std::move(watched)),
        peaks_(peaks) {}

  void on_start(sim::Context& ctx) override {
    inner_->on_start(ctx);
    for (const Bytes& frame : flood_) {
      for (std::size_t i = 0; i < copies_; ++i) ctx.broadcast(frame);
    }
    probe();
  }
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    inner_->on_message(ctx, from, payload);
    probe();
  }
  void on_timer(sim::Context& ctx, std::uint64_t id) override {
    inner_->on_timer(ctx, id);
    probe();
  }

 private:
  void probe() {
    if (view_ == nullptr || peaks_ == nullptr) return;
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      (*peaks_)[i] =
          std::max((*peaks_)[i], view_->buffered(watched_[i], source_));
    }
  }

  std::unique_ptr<sim::Actor> inner_;
  const bft::TransformedActor* view_;
  std::vector<Bytes> flood_;
  std::size_t copies_;
  ProcessId source_;
  std::vector<Round> watched_;
  std::vector<std::size_t>* peaks_;
};

// Byzantine flooding of far-future rounds must not exhaust the buffer.
// Besides re-labelling its own votes, p3 signs a flood of votes for
// round 3, far more than the per-sender cap, and one vote for a round
// past the horizon.  The flood outlasts the decision, so correct
// processes run in audit mode and keep receiving it.
TEST(BftEdge, FutureRoundFloodIsBounded) {
  BftScenarioConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 5;
  cfg.stop_on_decide = false;
  FaultSpec spec;
  spec.who = ProcessId{2};
  spec.behavior = Behavior::kWrongRound;  // every message re-labelled
  spec.from_round = Round{1};
  cfg.faults = {spec};

  const crypto::SignatureSystem keys =
      crypto::HmacScheme{}.make_system(cfg.n, cfg.seed);
  const Round flooded{3};
  const Round beyond{10 + bft::kMaxBufferedRounds};
  std::vector<Bytes> flood;
  for (Round r : {flooded, beyond}) {
    bft::SignedMessage vote;
    vote.core.kind = bft::BftKind::kNext;
    vote.core.sender = spec.who;
    vote.core.round = r;
    vote.sig = keys.signers[spec.who.value]->sign(
        bft::signing_bytes(vote.core, vote.cert));
    flood.push_back(bft::encode_message(vote));
  }
  std::vector<std::vector<std::size_t>> peaks(
      cfg.n, std::vector<std::size_t>(2, 0));
  cfg.wrap_actor = [&](ProcessId id, std::unique_ptr<sim::Actor> actor)
      -> std::unique_ptr<sim::Actor> {
    if (id == spec.who) {
      return std::make_unique<FloodHarness>(std::move(actor), flood, 5000,
                                            spec.who, std::vector<Round>{},
                                            nullptr);
    }
    return std::make_unique<FloodHarness>(
        std::move(actor), std::vector<Bytes>{}, 0, spec.who,
        std::vector<Round>{flooded, beyond}, &peaks[id.value]);
  };

  BftScenarioResult r = run_bft_scenario(cfg);
  EXPECT_TRUE(r.termination);
  EXPECT_TRUE(r.agreement);
  ASSERT_EQ(r.correct.size(), 3u);
  for (std::uint32_t i : r.correct) {
    EXPECT_EQ(peaks[i][0], bft::kMaxBufferedPerSender)
        << "p" << i + 1 << " buffered round " << flooded.value;
    EXPECT_EQ(peaks[i][1], 0u)
        << "p" << i + 1 << " kept a vote past the horizon";
  }
}

}  // namespace
}  // namespace modubft
