// Tests for the pipelined, batching SMR replica.
//
// The load-bearing property: the commit rule (anchor decided by consensus,
// batch re-derived from the committed set at the frontier) makes the
// store's application order the increasing command-id order for *any*
// (window, batch) configuration — so a pipelined run must commit a
// KvStore bit-identical to the sequential run's.  The tests assert that
// equivalence on both back-ends and both the sim and threads substrates,
// plus the envelope-buffering bounds (early frames parked, far-future and
// over-cap frames dropped, post-commit stragglers discarded) and a
// Byzantine replica attacking one mid-window slot.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bft/message.hpp"
#include "common/serial.hpp"
#include "consensus/messages.hpp"
#include "crypto/hmac_signer.hpp"
#include "faults/scenario.hpp"
#include "sim/simulation.hpp"
#include "smr/checkpoint.hpp"
#include "smr/replica.hpp"

namespace modubft::smr {
namespace {

// A put/overwrite/delete mix over a small key space, so batch boundaries
// land in the middle of overwrite chains.
std::vector<Command> mixed_workload(std::uint64_t count) {
  std::vector<Command> cmds;
  for (std::uint64_t id = 1; id <= count; ++id) {
    const std::string key = "k" + std::to_string(id % 5);
    if (id % 4 == 0) {
      cmds.push_back({id, Command::Op::kDel, key, ""});
    } else {
      cmds.push_back({id, Command::Op::kPut, key, "v" + std::to_string(id)});
    }
  }
  return cmds;
}

faults::SmrScenarioConfig pipelined_config(Backend backend, std::uint32_t w,
                                           std::uint32_t b,
                                           std::uint64_t commands = 12) {
  faults::SmrScenarioConfig cfg;
  cfg.n = backend == Backend::kByzantine ? 4 : 5;
  cfg.f = 1;
  cfg.seed = 11;
  cfg.backend = backend;
  cfg.workload = mixed_workload(commands);
  cfg.window = w;
  cfg.batch = b;
  return cfg;
}

void expect_full_commit(const faults::SmrScenarioResult& r, const char* what,
                        std::uint64_t commands = 12) {
  EXPECT_TRUE(r.clean) << what;
  EXPECT_TRUE(r.all_committed) << what;
  EXPECT_TRUE(r.stores_agree) << what;
  EXPECT_EQ(r.run_stats.pipeline.commands_committed, commands) << what;
}

TEST(SmrPipeline, CrashBackendStoreEquivalentAcrossWindowAndBatch) {
  const faults::SmrScenarioResult seq =
      faults::run_smr_scenario(pipelined_config(Backend::kCrashHurfinRaynal,
                                                1, 1));
  expect_full_commit(seq, "W1 B1");
  ASSERT_FALSE(seq.store.empty());

  for (const auto& [w, b] : std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>{
           {4, 4}, {2, 3}, {3, 1}, {1, 4}}) {
    const faults::SmrScenarioResult piped = faults::run_smr_scenario(
        pipelined_config(Backend::kCrashHurfinRaynal, w, b));
    expect_full_commit(piped, "pipelined crash");
    EXPECT_EQ(piped.store, seq.store) << "W" << w << " B" << b;
  }
}

TEST(SmrPipeline, ByzantineBackendStoreEquivalentAcrossWindowAndBatch) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kByzantine, 1, 1));
  expect_full_commit(seq, "W1 B1");
  ASSERT_FALSE(seq.store.empty());

  for (const auto& [w, b] : std::vector<std::pair<std::uint32_t,
                                                  std::uint32_t>>{
           {4, 4}, {2, 2}}) {
    const faults::SmrScenarioResult piped =
        faults::run_smr_scenario(pipelined_config(Backend::kByzantine, w, b));
    expect_full_commit(piped, "pipelined byz");
    EXPECT_EQ(piped.store, seq.store) << "W" << w << " B" << b;
  }
}

TEST(SmrPipeline, CrashBackendPipelinedSurvivesReplicaCrash) {
  faults::SmrScenarioConfig cfg =
      pipelined_config(Backend::kCrashHurfinRaynal, 3, 2);
  cfg.crashes.push_back({ProcessId{4}, 3'000, std::nullopt});
  const faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
  EXPECT_TRUE(r.all_committed);
  EXPECT_TRUE(r.stores_agree);
  EXPECT_EQ(r.correct.size(), 4u);
}

TEST(SmrPipeline, WindowStatsReachConfiguredPeak) {
  // 24 commands fill the W x B = 16 ids the four live slots claim.
  faults::SmrScenarioConfig cfg =
      pipelined_config(Backend::kByzantine, 4, 4, 24);
  const faults::SmrScenarioResult r = faults::run_smr_scenario(cfg);
  expect_full_commit(r, "W4 B4", 24);
  EXPECT_EQ(r.run_stats.pipeline.window, 4u);
  EXPECT_EQ(r.run_stats.pipeline.batch, 4u);
  EXPECT_EQ(r.run_stats.pipeline.window_peak, 4u);
  EXPECT_GT(r.run_stats.pipeline.avg_window, 1.0);
  EXPECT_EQ(r.run_stats.pipeline.max_batch, 4u);
  // The Byzantine back-end shares one verification cache per replica
  // across slots, so pipelined runs must show cross-slot hits.
  EXPECT_GT(r.run_stats.verify.cache_hits, 0u);
}

// A preloaded log has no fixed length either: 12 commands at W4 B4 take
// exactly the three slots their batches fill, no replica runs a no-op
// slot, and the simulation ends because nothing is left to propose.
TEST(SmrPipeline, PreloadedLogEndsWithItsWorkload) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 11);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 11;
  sim::Simulation world(sim_cfg);

  std::vector<Replica*> replicas(kN, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.window = 4;
    cfg.batch = 4;
    cfg.bft.n = kN;
    cfg.bft.f = 1;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica =
        std::make_unique<Replica>(cfg, mixed_workload(12), CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  EXPECT_EQ(world.run(), sim::RunOutcome::kQuiescent);

  for (std::uint32_t i = 0; i < kN; ++i) {
    const PipelineStats& p = replicas[i]->pipeline_stats();
    EXPECT_EQ(replicas[i]->committed_slots(), 3u) << "replica " << i;
    EXPECT_EQ(p.noop_slots, 0u) << "replica " << i;
    EXPECT_EQ(p.commands_committed, 12u) << "replica " << i;
    EXPECT_EQ(replicas[i]->store().contents(),
              replicas[0]->store().contents());
  }
}

// --- threads substrate (TSan customers; `threads` ctest label) ---------

TEST(SmrPipeline, ThreadsCrashBackendMatchesSimSequentialStore) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kCrashHurfinRaynal, 1, 1));
  expect_full_commit(seq, "sim W1 B1");

  faults::SmrScenarioConfig cfg =
      pipelined_config(Backend::kCrashHurfinRaynal, 3, 2);
  cfg.substrate = runtime::Backend::kThreads;
  const faults::SmrScenarioResult piped = faults::run_smr_scenario(cfg);
  expect_full_commit(piped, "threads W3 B2");
  EXPECT_EQ(piped.store, seq.store);
}

TEST(SmrPipeline, ThreadsByzantineBackendMatchesSimSequentialStore) {
  const faults::SmrScenarioResult seq = faults::run_smr_scenario(
      pipelined_config(Backend::kByzantine, 1, 1));
  expect_full_commit(seq, "sim W1 B1");

  faults::SmrScenarioConfig cfg = pipelined_config(Backend::kByzantine, 4, 4);
  cfg.substrate = runtime::Backend::kThreads;
  const faults::SmrScenarioResult piped = faults::run_smr_scenario(cfg);
  expect_full_commit(piped, "threads W4 B4");
  EXPECT_EQ(piped.store, seq.store);
}

// --- envelope buffering bounds -----------------------------------------

Bytes envelope(std::uint64_t slot, const Bytes& inner) {
  Writer w;
  w.u64(slot);
  w.raw(inner);
  return std::move(w).take();
}

// Floods the three real replicas with early frames before the pipeline
// has started the targeted slots: within-horizon frames must be parked
// (bounded per sender and slot), beyond-horizon frames dropped, and the
// parked garbage must be replayed harmlessly (the BFT instance rejects
// it).
constexpr std::uint64_t kHorizon = 1 + kMaxFutureSlots;  // frontier 0, W1

class EarlyFrameInjector final : public sim::Actor {
 public:
  void on_start(sim::Context& ctx) override {
    const Bytes junk = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04,
                        0x05, 0x06, 0x07, 0x08};
    for (std::uint32_t to = 0; to < 3; ++to) {
      // The horizon slot and one past it are beyond reach: dropped.
      ctx.send(ProcessId{to}, envelope(kHorizon, junk));
      ctx.send(ProcessId{to}, envelope(kHorizon + 1, junk));
      // Slot 2 is unstarted but within the horizon: the sender's share
      // parks, the one beyond it is dropped.
      for (std::uint32_t i = 0; i <= kMaxFuturePerSender; ++i) {
        ctx.send(ProcessId{to}, envelope(2, junk));
      }
      // Not even an envelope (truncated tag): ignored, not counted.
      ctx.send(ProcessId{to}, Bytes{0x01, 0x02});
    }
    ctx.stop();
  }
  void on_message(sim::Context&, ProcessId, const Bytes&) override {}
};

TEST(SmrPipeline, FutureFramesBufferedWithinBoundsAndDroppedBeyond) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 5);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 5;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> replicas(3, nullptr);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.window = 1;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  world.set_actor(ProcessId{3}, std::make_unique<EarlyFrameInjector>());
  world.run();

  for (std::uint32_t i = 0; i < 3; ++i) {
    const PipelineStats& p = replicas[i]->pipeline_stats();
    EXPECT_EQ(p.commands_committed, faults::sample_workload().size())
        << "replica " << i;
    EXPECT_EQ(p.future_buffered, kMaxFuturePerSender) << "replica " << i;
    // The one over the share, and the two beyond the horizon.
    EXPECT_EQ(p.future_dropped, 3u) << "replica " << i;
    EXPECT_EQ(replicas[i]->store().contents(),
              replicas[0]->store().contents());
  }
  EXPECT_EQ(replicas[0]->store().get("alpha"), "3");
}

// --- post-commit stragglers --------------------------------------------

// Minimal Context for poking a finished replica outside any runtime.
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

TEST(SmrPipeline, PostCommitStragglersAreCountedAndIgnored) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 7);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 7;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> replicas(kN, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.window = 2;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    replicas[i] = replica.get();
    world.set_actor(ProcessId{i}, std::move(replica));
  }
  world.run();
  ASSERT_EQ(replicas[0]->store().applied_count(),
            faults::sample_workload().size());

  const PipelineStats& p = replicas[0]->pipeline_stats();
  const std::uint64_t stale_before = p.stale_dropped;
  const std::uint64_t future_before = p.future_dropped;
  const auto contents_before = replicas[0]->store().contents();

  StubContext stub;
  const Bytes junk = {0x11, 0x22, 0x33};
  // A frame for an already-committed slot: counted as stale, no effect.
  replicas[0]->on_message(stub, ProcessId{1}, envelope(0, junk));
  EXPECT_EQ(p.stale_dropped, stale_before + 1);
  // A frame for a slot beyond the buffering horizon: dropped as a
  // far-future frame.
  replicas[0]->on_message(stub, ProcessId{1}, envelope(99, junk));
  EXPECT_EQ(p.stale_dropped, stale_before + 1);
  EXPECT_EQ(p.future_dropped, future_before + 1);
  EXPECT_EQ(replicas[0]->store().contents(), contents_before);
}

// A flooder fills only its own share of a future slot: p3 sends far more
// envelopes for slot 5 than it may park, then a correct peer's envelope
// for the same slot (p1's DECIDE) arrives.  It must be buffered and, when
// the slot starts, replayed into the instance, which decides on it.
TEST(SmrPipeline, FloodedFutureSlotStillBuffersACorrectPeersEnvelope) {
  constexpr std::uint32_t kN = 4;
  ReplicaConfig cfg;
  cfg.n = kN;
  cfg.backend = Backend::kCrashHurfinRaynal;
  cfg.window = 1;
  Replica replica(cfg, faults::sample_workload(), CommitFn{});
  StubContext stub;
  replica.on_start(stub);  // slot 0 starts; slot 5 is within the horizon

  constexpr std::uint32_t kFlood = 1000;
  const Bytes junk = {0x11, 0x22, 0x33};
  for (std::uint32_t i = 0; i < kFlood; ++i) {
    replica.on_message(stub, ProcessId{3}, envelope(5, junk));
  }
  const PipelineStats& p = replica.pipeline_stats();
  EXPECT_EQ(p.future_buffered, kMaxFuturePerSender);
  EXPECT_EQ(p.future_dropped, kFlood - kMaxFuturePerSender);

  auto decide = [](std::uint64_t value) {
    consensus::Vote v;
    v.kind = consensus::VoteKind::kDecide;
    v.sender = ProcessId{1};
    v.round = Round{1};
    v.value = value;
    return consensus::encode_vote(v);
  };
  replica.on_message(stub, ProcessId{1}, envelope(5, decide(5)));
  EXPECT_EQ(p.future_buffered, kMaxFuturePerSender + 1);
  EXPECT_EQ(p.future_dropped, kFlood - kMaxFuturePerSender);

  // p1's DECIDEs for slots 0-4 commit the workload one command per slot;
  // each commit starts the next slot, and slot 5, with nothing left to
  // propose, starts because its buffer holds envelopes: p3's junk is
  // ignored, p1's DECIDE decides it.
  for (std::uint64_t slot = 0; slot < 5; ++slot) {
    replica.on_message(stub, ProcessId{1}, envelope(slot, decide(slot + 1)));
  }
  EXPECT_EQ(replica.committed_slots(), 6u);
  EXPECT_EQ(replica.store().applied_count(), 5u);
  EXPECT_EQ(replica.store().get("alpha"), "3");
  EXPECT_EQ(replica.store().get("gamma"), "5");
  EXPECT_EQ(p.commands_committed, 5u);
}

// --- Byzantine attack on a mid-window slot -----------------------------

// Wraps a genuine replica and corrupts the inner payload of every frame
// it emits for one slot (to everyone but itself): the signatures then
// fail at the receivers, making the wrapped replica Byzantine in exactly
// that mid-window slot while behaving honestly in all the others.
class SlotCorruptingReplica final : public sim::Actor {
 public:
  SlotCorruptingReplica(std::unique_ptr<Replica> inner,
                        std::uint64_t target_slot)
      : inner_(std::move(inner)), target_(target_slot) {}

  void on_start(sim::Context& ctx) override {
    Corrupting sub(ctx, target_);
    inner_->on_start(sub);
  }
  void on_message(sim::Context& ctx, ProcessId from,
                  const Bytes& payload) override {
    Corrupting sub(ctx, target_);
    inner_->on_message(sub, from, payload);
  }
  void on_timer(sim::Context& ctx, std::uint64_t timer_id) override {
    Corrupting sub(ctx, target_);
    inner_->on_timer(sub, timer_id);
  }

 private:
  class Corrupting final : public sim::ForwardingContext {
   public:
    Corrupting(sim::Context& base, std::uint64_t target)
        : ForwardingContext(base), target_(target) {}

    void send(ProcessId to, Bytes payload) override {
      base_.send(to, to == id() ? std::move(payload) : mutate(payload));
    }
    void broadcast(const Bytes& payload) override {
      // Keep the self-copy intact so the wrapped replica's own instance
      // stays consistent and the replica terminates.
      for (std::uint32_t i = 0; i < n(); ++i) {
        base_.send(ProcessId{i},
                   ProcessId{i} == id() ? payload : mutate(payload));
      }
    }

   private:
    Bytes mutate(Bytes payload) const {
      if (payload.size() <= 8) return payload;
      Reader r(payload);
      if (r.u64() != target_) return payload;
      for (std::size_t i = 8; i < payload.size(); ++i) payload[i] ^= 0x5a;
      return payload;
    }
    std::uint64_t target_;
  };

  std::unique_ptr<Replica> inner_;
  std::uint64_t target_;
};

TEST(SmrPipeline, CorrectReplicasCommitDespiteMidWindowByzantineSlot) {
  constexpr std::uint32_t kN = 4;
  crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(kN, 13);

  sim::SimConfig sim_cfg;
  sim_cfg.n = kN;
  sim_cfg.seed = 13;
  sim::Simulation world(sim_cfg);

  bft::BftConfig bft_cfg;
  bft_cfg.n = kN;
  bft_cfg.f = 1;

  std::vector<Replica*> correct(3, nullptr);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ReplicaConfig cfg;
    cfg.n = kN;
    cfg.backend = Backend::kByzantine;
    cfg.window = 3;
    cfg.bft = bft_cfg;
    cfg.signer = keys.signers[i].get();
    cfg.verifier = keys.verifier;
    auto replica = std::make_unique<Replica>(
        cfg, faults::sample_workload(), CommitFn{});
    if (i == 3) {
      // Slot 1 is mid-window at launch (window {0, 1, 2}).
      world.set_actor(ProcessId{i}, std::make_unique<SlotCorruptingReplica>(
                                        std::move(replica), 1));
    } else {
      correct[i] = replica.get();
      world.set_actor(ProcessId{i}, std::move(replica));
    }
  }
  world.run();

  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(correct[i]->store().applied_count(),
              faults::sample_workload().size())
        << "replica " << i;
    EXPECT_EQ(correct[i]->store().contents(), correct[0]->store().contents());
  }
  EXPECT_EQ(correct[0]->store().get("alpha"), "3");
  EXPECT_EQ(correct[0]->store().get("gamma"), "5");
}

// --- batch dispatch order ----------------------------------------------

// Records every frame the replica hands to the transport, in order.
class RecordingContext final : public sim::Context {
 public:
  ProcessId id() const override { return ProcessId{0}; }
  std::uint32_t n() const override { return 4; }
  SimTime now() const override { return 0; }
  void send(ProcessId, Bytes payload) override {
    out.push_back(std::move(payload));
  }
  void broadcast(const Bytes& payload) override { out.push_back(payload); }
  std::uint64_t set_timer(SimTime) override { return ++timers_; }
  void cancel_timer(std::uint64_t) override {}
  Rng& rng() override { return rng_; }
  void stop() override {}

  std::vector<Bytes> out;

 private:
  std::uint64_t timers_ = 0;
  Rng rng_{0};
};

Bytes init_frame(const crypto::SignatureSystem& keys, std::uint32_t sender,
                 std::uint64_t value) {
  bft::SignedMessage m;
  m.core.kind = bft::BftKind::kInit;
  m.core.sender = ProcessId{sender};
  m.core.round = Round{0};
  m.core.init_value = value;
  m.sig = keys.signers[sender]->sign(bft::signing_bytes(m.core, m.cert));
  return envelope(0, bft::encode_message(m));
}

// Feeds one replica a batch of three peer INITs for slot 0 through
// on_batch and returns every frame it emitted, in emission order.
// Replica 0 is the round-1 coordinator, so the quorum-completing INIT
// makes it emit a CURRENT.  With `client_request` the replica serves one
// client (process 4) and the batch ends with that client's REQUEST, which
// the replica admits and broadcasts as a CMD_RELAY control frame.
std::vector<Bytes> dispatch_init_batch(bool client_request) {
  const crypto::SignatureSystem keys = crypto::HmacScheme{}.make_system(4, 23);

  ReplicaConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kByzantine;
  cfg.bft.n = 4;
  cfg.bft.f = 1;
  cfg.signer = keys.signers[0].get();
  cfg.verifier = keys.verifier;
  if (client_request) cfg.client.num_clients = 1;
  Replica replica(cfg, faults::sample_workload(), CommitFn{});

  RecordingContext ctx;
  replica.on_start(ctx);
  std::vector<sim::Incoming> batch;
  for (std::uint32_t sender : {1u, 2u, 3u}) {
    batch.push_back({ProcessId{sender}, init_frame(keys, sender, sender + 1)});
  }
  if (client_request) {
    ClientRequest req;
    req.seq = 1;
    req.key = "alpha";
    req.value = "7";
    batch.push_back({ProcessId{4}, encode_control_request(req)});
  }
  replica.on_batch(ctx, batch);
  return std::move(ctx.out);
}

// Names an emitted frame: the BFT kind behind a consensus slot tag, or the
// control kind behind the all-ones tag.
std::string frame_kind(const Bytes& frame) {
  Reader r(frame);
  if (r.u64() == kControlSlot) {
    return "control " + std::to_string(r.u8());
  }
  const bft::DecodeOutcome out =
      bft::try_decode_message(Bytes(frame.begin() + 8, frame.end()));
  return out ? bft::kind_name(out.msg.core.kind) : "undecodable";
}

std::vector<std::string> frame_kinds(const std::vector<Bytes>& frames) {
  std::vector<std::string> kinds;
  for (const Bytes& f : frames) kinds.push_back(frame_kind(f));
  return kinds;
}

// A delivery batch is dispatched message by message, in arrival order,
// with every signed message leaving inline (docs/INGEST.md): the replica
// sends its own INIT from on_start, the round-1 coordinator CURRENT
// triggered by the quorum-completing INIT, then the CMD_RELAY admitting
// the client's command behind it.  Each goes to the 4 replicas, one send
// each, and none to the client.
TEST(SmrBatchDispatch, OnBatchEmitsInArrivalOrder) {
  for (bool client_request : {false, true}) {
    SCOPED_TRACE(client_request ? "INITs + REQUEST" : "INITs");
    std::vector<std::string> kinds = {"INIT", "CURRENT"};
    if (client_request) {
      kinds.push_back(
          "control " +
          std::to_string(static_cast<int>(ControlKind::kCmdRelay)));
    }
    std::vector<std::string> expected;
    for (const std::string& kind : kinds) {
      expected.insert(expected.end(), 4, kind);
    }
    EXPECT_EQ(frame_kinds(dispatch_init_batch(client_request)), expected);
  }
}

}  // namespace
}  // namespace modubft::smr
