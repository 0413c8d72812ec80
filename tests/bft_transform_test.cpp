// Tests for the generic transformation pipeline (TransformedActor) and its
// second instantiation, the certified lockstep barrier.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "bft/bft_consensus.hpp"
#include "bft/lockstep.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac_signer.hpp"
#include "sim/simulation.hpp"

namespace modubft::bft {
namespace {

struct LockstepRun {
  std::map<std::uint32_t, Round> finished;          // pid → final round
  std::map<std::uint32_t, SimTime> finish_time;
  // Snapshots of each correct process's detection state, taken before the
  // simulation (which owns the actors) is destroyed.
  std::vector<std::set<ProcessId>> faulty;
  std::vector<std::vector<FaultRecord>> records;
  sim::RunOutcome outcome;
};

/// A hostile participant: follows the barrier but applies a mutation to its
/// own votes.  Implemented directly against the wire format — a Byzantine
/// process is not obliged to run our pipeline.
class EvilVoter : public sim::Actor {
 public:
  enum class Mode { kDoubleVote, kSkipRound, kGarbageSig, kNoWitness };

  EvilVoter(LockstepConfig config, const crypto::Signer* signer, Mode mode)
      : config_(config), signer_(signer), mode_(mode) {}

  void on_start(sim::Context& ctx) override {
    vote(ctx, Round{1}, Certificate{});
    if (mode_ == Mode::kDoubleVote) vote(ctx, Round{1}, Certificate{});
    if (mode_ == Mode::kSkipRound) vote(ctx, Round{3}, Certificate{});
  }

  void on_message(sim::Context& ctx, ProcessId, const Bytes& payload) override {
    // Follow the barrier: collect enough round-r votes, then vote r+1.
    SignedMessage msg;
    try {
      msg = decode_message(payload);
    } catch (const modubft::SerialError&) {
      return;
    }
    if (msg.core.kind != BftKind::kNext || msg.core.round != round_) return;
    collected_.add(msg);
    if (collected_.size() < config_.quorum()) return;
    Certificate witness =
        mode_ == Mode::kNoWitness ? Certificate{} : collected_;
    collected_ = Certificate{};
    round_ = round_.next();
    if (round_.value > config_.rounds) {
      ctx.stop();
      return;
    }
    vote(ctx, round_, witness);
  }

 private:
  void vote(sim::Context& ctx, Round r, Certificate cert) {
    MessageCore core;
    core.kind = BftKind::kNext;
    core.sender = ctx.id();
    core.round = r;
    SignedMessage msg;
    msg.core = std::move(core);
    msg.cert = std::move(cert);
    msg.sig = signer_->sign(signing_bytes(msg.core, msg.cert));
    if (mode_ == Mode::kGarbageSig && !msg.sig.empty()) msg.sig[0] ^= 0xff;
    ctx.broadcast(encode_message(msg));
  }

  LockstepConfig config_;
  const crypto::Signer* signer_;
  Mode mode_;
  Round round_{1};
  Certificate collected_;
};

LockstepRun run_lockstep(std::uint32_t n, std::uint32_t f,
                         std::uint32_t rounds, std::uint64_t seed,
                         std::optional<EvilVoter::Mode> evil = {},
                         std::optional<SimTime> crash_p_last = {}) {
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(n, seed);

  sim::SimConfig sim_cfg;
  sim_cfg.n = n;
  sim_cfg.seed = seed;
  sim::Simulation world(sim_cfg);

  LockstepRun run;
  std::vector<const TransformedActor*> views(n, nullptr);

  LockstepConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.rounds = rounds;

  for (std::uint32_t i = 0; i < n; ++i) {
    const bool is_evil = evil.has_value() && i == n - 1;
    const bool is_crash = crash_p_last.has_value() && i == n - 1;
    if (is_evil) {
      world.set_actor(ProcessId{i}, std::make_unique<EvilVoter>(
                                        cfg, keys.signers[i].get(), *evil));
      continue;
    }
    auto actor = make_lockstep_actor(
        cfg, keys.signers[i].get(), keys.verifier,
        [&run, i](ProcessId, Round r, SimTime t) {
          run.finished.emplace(i, r);
          run.finish_time.emplace(i, t);
        },
        &views[i]);
    world.set_actor(ProcessId{i}, std::move(actor));
    if (is_crash) world.crash_at(ProcessId{i}, *crash_p_last);
  }
  run.outcome = world.run();
  run.faulty.resize(n);
  run.records.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (views[i] == nullptr) continue;  // evil / non-pipeline actor
    run.faulty[i] = views[i]->nonmuteness().faulty_set();
    run.records[i] = views[i]->nonmuteness().records();
  }
  return run;
}

TEST(Lockstep, AllProcessesCrossAllBarriers) {
  LockstepRun run = run_lockstep(4, 1, 5, 1);
  ASSERT_EQ(run.finished.size(), 4u);
  for (auto& [i, r] : run.finished) EXPECT_EQ(r.value, 5u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(run.faulty[i].empty());
  }
}

TEST(Lockstep, ToleratesSilentProcess) {
  LockstepRun run = run_lockstep(4, 1, 5, 2, {}, SimTime{0});
  // The three survivors (quorum = 3) finish; the crashed one does not.
  EXPECT_EQ(run.finished.size(), 3u);
  for (auto& [i, r] : run.finished) EXPECT_EQ(r.value, 5u);
}

TEST(Lockstep, LargerGroupAndDepth) {
  LockstepRun run = run_lockstep(7, 2, 10, 3);
  ASSERT_EQ(run.finished.size(), 7u);
  for (auto& [i, r] : run.finished) EXPECT_EQ(r.value, 10u);
}

TEST(Lockstep, DoubleVoterConvicted) {
  LockstepRun run = run_lockstep(4, 1, 5, 4, EvilVoter::Mode::kDoubleVote);
  // Correct processes (p1..p3) finish and convict p4.
  EXPECT_EQ(run.finished.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(run.faulty[i].count(ProcessId{3}))
        << "p" << i + 1 << " did not convict";
    for (const FaultRecord& rec : run.records[i]) {
      EXPECT_EQ(rec.culprit, (ProcessId{3}));
      EXPECT_EQ(rec.kind, FaultKind::kOutOfOrder);
    }
  }
}

TEST(Lockstep, RoundSkipperConvicted) {
  LockstepRun run = run_lockstep(4, 1, 5, 5, EvilVoter::Mode::kSkipRound);
  EXPECT_EQ(run.finished.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(run.faulty[i].count(ProcessId{3}));
  }
}

TEST(Lockstep, GarbageSignatureConvicted) {
  LockstepRun run = run_lockstep(4, 1, 5, 6, EvilVoter::Mode::kGarbageSig);
  EXPECT_EQ(run.finished.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_FALSE(run.records[i].empty());
    EXPECT_EQ(run.records[i][0].kind, FaultKind::kBadSignature);
  }
}

TEST(Lockstep, MissingWitnessConvicted) {
  LockstepRun run = run_lockstep(4, 1, 5, 7, EvilVoter::Mode::kNoWitness);
  EXPECT_EQ(run.finished.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(run.faulty[i].count(ProcessId{3}));
    bool saw_cert_fault = false;
    for (const FaultRecord& rec : run.records[i]) {
      saw_cert_fault |= rec.kind == FaultKind::kBadCertificate;
    }
    EXPECT_TRUE(saw_cert_fault);
  }
}

TEST(Lockstep, PrunedWitnessesStayVerifiable) {
  // Deep barrier with pruning on (the default): witness certificates nested
  // inside votes travel as digests yet every signature still verifies —
  // no convictions of correct processes across 20 rounds.
  LockstepRun run = run_lockstep(4, 1, 20, 8);
  ASSERT_EQ(run.finished.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(run.faulty[i].empty());
  }
}

// --- the pipeline's future-round buffer ---------------------------------

// Enters round 2 on its timer, then the next round whenever p2 votes in
// the current one.
class RoundStepper final : public RoundProtocol {
 public:
  void rp_start(ModuleServices&, sim::Context&) override {}
  void rp_deliver(ModuleServices& services, sim::Context& ctx,
                  const MemberPtr& msg) override {
    if (msg->core.sender != ProcessId{1} || msg->core.round != round_) return;
    round_ = round_.next();
    services.enter_round(ctx.now());
  }
  void rp_timer(ModuleServices& services, sim::Context& ctx,
                std::uint64_t) override {
    round_ = Round{2};
    services.enter_round(ctx.now());
  }
  Round rp_round() const override { return round_; }
  bool rp_done() const override { return false; }

 private:
  Round round_{1};
};

// (sender, round) of each message, in the order the models saw them.
using Observed = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// Accepts everything and records what reaches it.
class RecordingModel final : public PeerModel {
 public:
  explicit RecordingModel(Observed* seen) : seen_(seen) {}
  Verdict observe(const SignedMessage& msg) override {
    seen_->emplace_back(msg.core.sender.value, msg.core.round.value);
    return Verdict::ok();
  }

 private:
  Observed* seen_;
};

// Minimal Context for driving one pipeline outside any runtime.
class StubContext final : public sim::Context {
 public:
  ProcessId id() const override { return ProcessId{0}; }
  std::uint32_t n() const override { return 4; }
  SimTime now() const override { return 0; }
  void send(ProcessId, Bytes) override {}
  void broadcast(const Bytes&) override {}
  std::uint64_t set_timer(SimTime) override { return ++timers_; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

 private:
  std::uint64_t timers_ = 0;
  Rng rng_{0};
};

// p1's pipeline, at round 1, with every peer model recording into `seen`.
std::unique_ptr<TransformedActor> stepper_pipeline(
    const crypto::SignatureSystem& keys, Observed* seen) {
  return std::make_unique<TransformedActor>(
      keys.signers[0].get(),
      std::make_shared<const CertAnalyzer>(4, 3, keys.verifier),
      fd::MutenessConfig{}, std::make_unique<RoundStepper>(),
      [seen](ProcessId, const CertAnalyzer&) {
        return std::make_unique<RecordingModel>(seen);
      });
}

Bytes signed_vote(const crypto::SignatureSystem& keys, std::uint32_t sender,
                  std::uint32_t round) {
  SignedMessage msg;
  msg.core.kind = BftKind::kNext;
  msg.core.sender = ProcessId{sender};
  msg.core.round = Round{round};
  msg.sig = keys.signers[sender]->sign(signing_bytes(msg.core, msg.cert));
  return encode_message(msg);
}

// Far more signed votes for one round than any correct sender sends.
constexpr std::size_t kFlood = 5000;

TEST(TransformedPipeline, FutureRoundFloodIsCappedPerSender) {
  // One Byzantine peer signs a flood of votes for a future round.  Every
  // one is authentic, so only the cap stops them from piling up until the
  // receiver reaches that round.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 17);
  Observed seen;
  auto actor = stepper_pipeline(keys, &seen);
  const Bytes frame = signed_vote(keys, 1, 2);

  StubContext ctx;
  actor->on_start(ctx);
  for (std::size_t i = 0; i < kFlood; ++i) {
    actor->on_message(ctx, ProcessId{1}, frame);
  }
  EXPECT_TRUE(seen.empty()) << "round-2 votes must wait for round 2";
  EXPECT_EQ(actor->buffered(Round{2}, ProcessId{1}), kMaxBufferedPerSender);
  actor->on_timer(ctx, 1);  // enter round 2: the buffer drains
  EXPECT_EQ(seen.size(), kMaxBufferedPerSender);
  EXPECT_TRUE(actor->nonmuteness().faulty_set().empty());
}

TEST(TransformedPipeline, FutureRoundFloodDoesNotCrowdOutOtherSenders) {
  // p3 floods round 2 before p2's one round-2 vote arrives.  The flood
  // takes p3's share of the slot only: p2's vote still reaches its model
  // once the receiver enters round 2, so p2 is never seen to skip a round.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 23);
  Observed seen;
  auto actor = stepper_pipeline(keys, &seen);
  const Bytes flood = signed_vote(keys, 2, 2);

  StubContext ctx;
  actor->on_start(ctx);
  for (std::size_t i = 0; i < kFlood; ++i) {
    actor->on_message(ctx, ProcessId{2}, flood);
  }
  actor->on_message(ctx, ProcessId{1}, signed_vote(keys, 1, 2));
  EXPECT_EQ(actor->buffered(Round{2}, ProcessId{1}), 1u);
  actor->on_timer(ctx, 1);  // enter round 2
  const Observed expected = {{2, 2}, {2, 2}, {1, 2}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(actor->protocol().rp_round(), Round{3}) << "p2's vote was lost";
}

TEST(TransformedPipeline, BufferedRoundsDrainInArrivalOrder) {
  // The first round-2 vote drained moves the receiver on to round 3.  The
  // rest of the round-2 batch still reaches the peer models, before any
  // round-3 vote, so every model sees its peer's messages in FIFO order.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 19);
  Observed seen;
  auto actor = stepper_pipeline(keys, &seen);

  StubContext ctx;
  actor->on_start(ctx);
  const Observed sent = {{1, 2}, {2, 2}, {3, 2}, {1, 3}, {2, 3}};
  for (const auto& [sender, round] : sent) {
    actor->on_message(ctx, ProcessId{sender}, signed_vote(keys, sender, round));
  }
  EXPECT_TRUE(seen.empty());
  actor->on_timer(ctx, 1);  // enter round 2
  EXPECT_EQ(seen, sent);
}

TEST(TransformedPipeline, ByteIdenticalDuplicateStillReachesTheMonitor) {
  // The second copy of p1's INIT resolves to the interned first copy, and
  // still reaches p1's monitor, which convicts it.  Once p1 is faulty its
  // frames are still checked but grow the memo no further.
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 29);
  BftConfig cfg;
  BftProcess actor(cfg, 7, keys.signers[0].get(),
                   std::make_shared<crypto::CachingVerifier>(keys.verifier),
                   [](ProcessId, const VectorDecision&) {});
  StubContext ctx;
  actor.on_start(ctx);

  SignedMessage init;
  init.core.kind = BftKind::kInit;
  init.core.sender = ProcessId{1};
  init.core.init_value = 11;
  init.sig = keys.signers[1]->sign(signing_bytes(init.core, init.cert));
  const Bytes frame = encode_message(init);

  actor.on_message(ctx, ProcessId{1}, frame);
  EXPECT_TRUE(actor.nonmuteness().faulty_set().empty());
  const MessageMemo::Stats before = actor.message_memo().stats();
  actor.on_message(ctx, ProcessId{1}, frame);
  EXPECT_EQ(actor.message_memo().stats().hits, before.hits + 1);
  ASSERT_EQ(actor.nonmuteness().records().size(), 1u);
  EXPECT_EQ(actor.nonmuteness().records()[0].culprit, ProcessId{1});
  EXPECT_EQ(actor.nonmuteness().records()[0].detail, "duplicate INIT");

  const std::size_t interned = actor.message_memo().size();
  actor.on_message(ctx, ProcessId{1}, signed_vote(keys, 1, 1));
  EXPECT_EQ(actor.message_memo().size(), interned);
}

TEST(Lockstep, DeterministicReplay) {
  LockstepRun a = run_lockstep(5, 1, 6, 9);
  LockstepRun b = run_lockstep(5, 1, 6, 9);
  ASSERT_EQ(a.finish_time.size(), b.finish_time.size());
  for (auto& [i, t] : a.finish_time) EXPECT_EQ(t, b.finish_time.at(i));
}

}  // namespace
}  // namespace modubft::bft
